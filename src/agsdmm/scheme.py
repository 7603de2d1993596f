"""End-to-end construction of the secure matrix-multiplication scheme.

Pipeline: partition parameters (m, n, X) fix a curve degree d and two pole
order sequences phi and gamma; the outer-sum table of those sequences
determines the worker count N (its number of distinct entries) and which
table cells carry the data products. A field size is then chosen so the
curve has enough places with pairwise distinct x-coordinates, N of them are
picked as an information set, and the resulting N x N evaluation matrix
drives both encoding and decoding.

Matrices to be multiplied are plain integer arrays taken mod q. Matrix A is
cut into m row blocks and B into n column blocks; each worker receives one
masked combination of the blocks of each side and returns the product of its
two shares. The recovery-pole rows of the inverse evaluation matrix, computed
once at build time, map the N responses to every block product in one
product mod q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import linalg
from .field import PrimeField, is_prime
from .function_field import HyperellipticCurve


@dataclass(frozen=True)
class SchemeParams:
    """User-facing parameters: partition counts m, n; collusion tolerance x."""

    m: int
    n: int
    x: int
    q: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.x < 1:
            raise ValueError(f"m, n, x must be positive, got ({self.m}, {self.n}, {self.x})")


@dataclass(frozen=True)
class PoleStructure:
    """The pole order sequences and their outer-sum table for one (even-m) orientation."""

    m: int
    n: int
    x: int
    d: int
    g: int
    phi: tuple[int, ...]
    gamma: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    distinct_poles: tuple[int, ...]
    recovery_poles: tuple[int, ...]

    @property
    def n_workers(self) -> int:
        return len(self.distinct_poles)

    @property
    def worker_bound(self) -> int:
        """Upper bound on the worker count: (3mn + m)/2 + 3x - 2."""
        return (3 * self.m * self.n + self.m) // 2 + 3 * self.x - 2

    @property
    def code_degree(self) -> int:
        """Largest pole order of any product, 2mn + 4x - 4."""
        return 2 * self.m * self.n + 4 * self.x - 4

    @property
    def interference_degree(self) -> int:
        """Largest pole order of the discarded (mask-bearing) products, mn + 4x - 4."""
        return self.m * self.n + 4 * self.x - 4

    def recovery_pole(self, j: int, jp: int) -> int:
        """Pole order carrying the block product (j, jp), 0-indexed."""
        return self.phi[self.x + j] + self.gamma[self.x + jp]

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "x": self.x,
            "d": self.d,
            "genus": self.g,
            "phi": list(self.phi),
            "gamma": list(self.gamma),
            "table": [list(row) for row in self.table],
            "distinct_poles": list(self.distinct_poles),
            "recovery_poles": list(self.recovery_poles),
            "n_workers": self.n_workers,
            "worker_bound": self.worker_bound,
        }


def distinct_sums(a, b) -> tuple[int, ...]:
    """The distinct entries of the outer-sum table of two integer sequences, ascending."""
    return tuple(sorted({u + v for u in a for v in b}))


def pole_sequences(m: int, n: int, x: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Curve degree d and the two pole order sequences for an even-m orientation."""
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m} (swap orientation for odd m)")
    if n < 1 or x < 1:
        raise ValueError(f"n and x must be >= 1, got n={n}, x={x}")
    d = m * (n - 1) + 2 * x - 1
    if d < 3:
        raise ValueError(
            f"unsupported parameters (m={m}, n={n}, x={x}): curve degree d={d} < 3 "
            "degenerates to the genus-0 case"
        )
    phi = tuple(2 * k for k in range(x)) + tuple(d + j for j in range(m))
    gamma = tuple(2 * k for k in range(x)) + tuple(j * m + 2 * x - 2 for j in range(1, n + 1))
    return d, phi, gamma


def derive_parameters(m: int, n: int, x: int) -> PoleStructure:
    """Pole order sequences for partition counts m (even), n and collusion x."""
    d, phi, gamma = pole_sequences(m, n, x)
    g = (d - 1) // 2
    table = tuple(tuple(p + w for w in gamma) for p in phi)
    distinct = distinct_sums(phi, gamma)
    recovery = tuple(sorted(phi[x + j] + gamma[x + jp] for j in range(m) for jp in range(n)))

    # structural guarantees of the sequence choice; checked explicitly, not by
    # assert, so that they still hold under python -O
    cutoff = m * n + 4 * x - 4
    guarantees = {
        "phi and gamma have distinct entries":
            len(set(phi)) == len(phi) and len(set(gamma)) == len(gamma),
        "every pole order is even or at least d":
            all(w % 2 == 0 or w >= d for w in phi + gamma),
        "recovery poles are distinct": len(set(recovery)) == m * n,
        "recovery poles lie above the interference degree": all(w > cutoff for w in recovery),
        "mask products stay at or below the interference degree": all(
            table[j][jp] <= cutoff
            for j in range(m + x) for jp in range(n + x)
            if j < x or jp < x
        ),
        "worker count is within its bound": len(distinct) <= (3 * m * n + m) // 2 + 3 * x - 2,
    }
    broken = [name for name, holds in guarantees.items() if not holds]
    if broken:
        raise RuntimeError(f"pole structure for m={m}, n={n}, x={x} breaks: {'; '.join(broken)}")

    return PoleStructure(
        m=m, n=n, x=x, d=d, g=g, phi=phi, gamma=gamma,
        table=table, distinct_poles=distinct, recovery_poles=recovery,
    )


def resolve_orientation(m: int, n: int) -> bool:
    """True if the roles of the two sides must be swapped (m odd, n even)."""
    if m % 2 == 0:
        return False
    if n % 2 == 0:
        return True
    raise ValueError(f"at least one of m={m}, n={n} must be even")


def _usable_x_count(d: int, q: int, required: int) -> int:
    # distinct-x places of the scheme's curve over F_q, counted up to required
    curve = HyperellipticCurve(PrimeField(q), range(d))
    return len(curve.scan_x(required)[0])


def smallest_admissible_field(d: int, required_places: int) -> int:
    """Smallest odd prime q > d whose curve has at least required_places distinct-x places."""
    g = (d - 1) // 2
    # any prime at or above this square is sufficient by the point-count bound
    t = g + math.isqrt(g * g + 2 * required_places) + 2
    cap = t * t + 2000
    # a curve over F_q has at most q distinct x-coordinates, so no smaller q passes
    q = max(d + 2, required_places) | 1
    while q <= cap:
        if is_prime(q) and _usable_x_count(d, q, required_places) >= required_places:
            return q
        q += 2
    raise RuntimeError(f"no admissible field found below {cap} for d={d}")


@dataclass
class EncodedShares:
    """One masked share per worker for one input side."""

    side: str
    shares: list[np.ndarray]

    def __len__(self):
        return len(self.shares)


class SchemeInstance:
    """A fully built scheme: curve, information-set places, and evaluation system."""

    def __init__(self, params, poles, swapped, curve, candidate_places, information_set):
        self.params = params
        self.poles = poles
        self.swapped = swapped
        self.curve = curve
        self.field = curve.field
        self.q = curve.field.q
        self.candidate_places = candidate_places
        self.column_indices = information_set.columns
        places = self.places = [candidate_places[c] for c in self.column_indices]

        self.basis = [curve.monomial_for_pole_number(w) for w in poles.distinct_poles]
        self.phi_monomials = [curve.monomial_for_pole_number(w) for w in poles.phi]
        self.gamma_monomials = [curve.monomial_for_pole_number(w) for w in poles.gamma]

        # V[i][t] = basis_t(P_i) is S^T for S the information-set columns of
        # the candidate evaluations, factored by the build; invertible because
        # the places form an information set
        self.v_matrix = curve.evaluation_matrix(poles.distinct_poles, places).T.copy()
        # decoder rows: the coefficients of the recovery poles, in (j, j')
        # row-major order; rows of V^-1 are columns of S^-1
        index = {w: t for t, w in enumerate(poles.distinct_poles)}
        recovery = [index[poles.recovery_pole(j, jp)]
                    for j in range(poles.m) for jp in range(poles.n)]
        self._decoder = information_set.inverse_columns(recovery).T.copy()
        self._phi_eval = curve.evaluation_matrix(poles.phi, places)
        self._gamma_eval = curve.evaluation_matrix(poles.gamma, places)

    @property
    def n_workers(self) -> int:
        return self.poles.n_workers

    # -- encoding ----------------------------------------------------------

    def encode(self, side: str, matrix, rng) -> EncodedShares:
        """Masked shares of one input side; rng supplies the uniform masks."""
        if side not in ("A", "B"):
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
        mat = np.asarray(matrix, dtype=np.int64) % self.q
        if mat.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
        work = mat.T if self.swapped else mat
        if (side == "A") ^ self.swapped:
            shares = self._encode_row_blocks(work, rng)
        else:
            shares = self._encode_column_blocks(work, rng)
        return EncodedShares(side, shares)

    def _encode_row_blocks(self, mat, rng):
        me, x, q = self.poles.m, self.poles.x, self.q
        rows, cols = mat.shape
        if rows % me:
            raise ValueError(f"row count {rows} is not divisible by the partition count {me}")
        br = rows // me
        blocks = [mat[i * br:(i + 1) * br] for i in range(me)]
        masks = [rng.integers(0, q, size=(br, cols), dtype=np.int64) for _ in range(x)]
        return self._combine(self._phi_eval, masks + blocks)

    def _encode_column_blocks(self, mat, rng):
        ne, x, q = self.poles.n, self.poles.x, self.q
        rows, cols = mat.shape
        if cols % ne:
            raise ValueError(f"column count {cols} is not divisible by the partition count {ne}")
        bc = cols // ne
        blocks = [mat[:, j * bc:(j + 1) * bc] for j in range(ne)]
        masks = [rng.integers(0, q, size=(rows, bc), dtype=np.int64) for _ in range(x)]
        return self._combine(self._gamma_eval, masks + blocks)

    def _combine(self, coeff, pieces):
        # share_i = sum_t coeff[t, i] * pieces[t]; the inner length x + m is too
        # short for float64 BLAS to beat one int64 tensordot
        q = self.q
        stacked = np.stack(pieces)
        if len(pieces) * (q - 1) ** 2 < linalg.INT64_EXACT:
            shares = np.tensordot(coeff.T, stacked, axes=1)
            np.remainder(shares, q, out=shares)
        else:
            flat = linalg._matmul_reduced(coeff.T, stacked.reshape(len(pieces), -1), q)
            shares = flat.reshape((-1,) + stacked.shape[1:])
        return list(shares)

    # -- worker computation and decoding -----------------------------------

    def worker_products(self, shares_a: EncodedShares, shares_b: EncodedShares):
        """The per-worker products of the two shares, in worker order."""
        if shares_a.side != "A" or shares_b.side != "B":
            raise ValueError("worker_products expects an A-side and a B-side encoding")
        out = []
        for sa, sb in zip(shares_a.shares, shares_b.shares, strict=True):
            if self.swapped:
                out.append(linalg.matmul_mod(sb, sa, self.q))
            else:
                out.append(linalg.matmul_mod(sa, sb, self.q))
        return out

    def decode(self, responses) -> np.ndarray:
        """Recover the full product from all N worker responses."""
        if len(responses) != self.n_workers:
            raise ValueError(f"need all {self.n_workers} responses, got {len(responses)}")
        stacked = np.stack([np.asarray(r, dtype=np.int64) for r in responses])
        if stacked.ndim != 3:
            raise ValueError(f"responses must be 2-D matrices, got shape {stacked.shape[1:]}")
        np.remainder(stacked, self.q, out=stacked)
        n, br, bc = stacked.shape
        me, ne = self.poles.m, self.poles.n
        blocks = linalg._matmul_reduced(self._decoder, stacked.reshape(n, br * bc), self.q)
        out = blocks.reshape(me, ne, br, bc).transpose(0, 2, 1, 3).reshape(me * br, ne * bc)
        return out.T.copy() if self.swapped else out

    # -- verification helpers -----------------------------------------------

    def security_generator(self, side: str = "A") -> np.ndarray:
        """Evaluations of the x mask functions at the information places (x by N)."""
        if side not in ("A", "B"):
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
        ev = self._phi_eval if (side == "A") ^ self.swapped else self._gamma_eval
        return ev[: self.poles.x].copy()

    def star_product_dimension(self) -> int:
        """Rank of all pairwise products of the two sides' codeword generators."""
        fa = self.curve.evaluation_matrix(self.poles.phi, self.candidate_places)
        gb = self.curve.evaluation_matrix(self.poles.gamma, self.candidate_places)
        rows = [fa[j] * gb[jp] % self.q for j, jp in product(range(len(fa)), range(len(gb)))]
        return linalg.rank(np.array(rows, dtype=np.int64), self.q)

    def to_dict(self) -> dict:
        return {
            "m": self.params.m,
            "n": self.params.n,
            "X": self.params.x,
            "q": self.q,
            "seed": self.params.seed,
            "d": self.poles.d,
            "genus": self.poles.g,
            "phi": list(self.poles.phi),
            "gamma": list(self.poles.gamma),
            "N": self.n_workers,
            "curve": {"roots": list(self.curve.root_values)},
            "places": [{"x": p.x.value, "y": p.y.value} for p in self.places],
        }

    def __repr__(self):
        p = self.params
        return (f"SchemeInstance(m={p.m}, n={p.n}, x={p.x}, q={self.q}, "
                f"N={self.n_workers})")


def check_field_order(poles: PoleStructure, q: int) -> None:
    """Validate an explicitly requested field order against a pole structure."""
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"field order must be an odd prime, got {q}")
    if q <= poles.d:
        raise ValueError(f"field order {q} too small: need q > d = {poles.d} distinct roots")
    required = poles.code_degree + 1
    available = _usable_x_count(poles.d, q, required)
    if available < required:
        raise ValueError(
            f"field order {q} admits only {available} usable places; need at least {required}"
        )


def build_scheme(params: SchemeParams) -> SchemeInstance:
    """Derive the pole structure, pick the field, and assemble the full scheme."""
    swapped = resolve_orientation(params.m, params.n)
    me, ne = (params.n, params.m) if swapped else (params.m, params.n)
    poles = derive_parameters(me, ne, params.x)

    if params.q is None:
        q = smallest_admissible_field(poles.d, poles.code_degree + 1)
    else:
        q = params.q
        check_field_order(poles, q)

    # a nonzero function of pole order <= code_degree has at most code_degree
    # zeros, so the first code_degree + 1 places already have full rank N, and
    # greedy leftmost pivots pick the same columns from them as from all places;
    # the one elimination that picks them also factors the decoder's system
    curve = HyperellipticCurve(PrimeField(q), range(poles.d))
    candidates = curve.select_distinct_x_places(poles.code_degree + 1)
    evals = curve.evaluation_matrix(poles.distinct_poles, candidates)
    information_set = linalg.LUFactorization(evals, q)
    return SchemeInstance(params, poles, swapped, curve, candidates, information_set)


# -- persistence -------------------------------------------------------------


def save_scheme(instance: SchemeInstance, path) -> None:
    Path(path).write_text(json.dumps(instance.to_dict(), indent=2) + "\n")


def load_scheme(path) -> SchemeInstance:
    """Rebuild a scheme from its descriptor and verify the stored derived fields."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: scheme descriptor must be a JSON object, got {type(data).__name__}")
    missing = [k for k in ("m", "n", "X", "q") if k not in data]
    if missing:
        raise ValueError(f"{path}: scheme descriptor is missing key(s) {', '.join(missing)}")
    not_int = [k for k in ("m", "n", "X", "q", "seed")
               if k in data and type(data[k]) is not int]
    if not_int:
        raise ValueError(f"{path}: scheme descriptor key(s) {', '.join(not_int)} must be integers")
    params = SchemeParams(
        m=data["m"], n=data["n"], x=data["X"], q=data["q"], seed=data.get("seed", 0)
    )
    instance = build_scheme(params)
    rebuilt = instance.to_dict()
    mismatched = [k for k in data if rebuilt.get(k) != data[k]]
    if mismatched:
        raise ValueError(f"scheme descriptor does not match its rebuild: {mismatched}")
    return instance


def write_matrix_csv(path, matrix, q: int) -> None:
    """Write a matrix as CSV: a rows,cols,q header line, then one line per row."""
    mat = np.asarray(matrix, dtype=np.int64) % q
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    lines = [f"{mat.shape[0]},{mat.shape[1]},{q}"]
    lines.extend(",".join(str(int(v)) for v in row) for row in mat)
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path) -> tuple[np.ndarray, int]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        rows, cols, q = (int(v) for v in lines[0].split(","))
    except ValueError:
        raise ValueError(f"{path}: malformed header {lines[0]!r}; expected rows,cols,q") from None
    body = [[int(v) for v in ln.split(",")] for ln in lines[1:]]
    mat = np.array(body, dtype=np.int64)
    if mat.shape != (rows, cols):
        raise ValueError(f"{path}: header promises {rows}x{cols}, body is {mat.shape}")
    return mat % q, q
