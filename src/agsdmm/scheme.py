"""End-to-end construction of the secure matrix-multiplication scheme.

Pipeline: partition parameters (m, n, X) fix a curve degree d and two pole
order sequences phi and gamma; the outer-sum table of those sequences
determines the worker count N (its number of distinct entries) and which
table cells carry the data products. A field size is then chosen so the
curve has enough places with pairwise distinct x-coordinates, N of them are
picked as an information set, and the resulting N x N evaluation matrix
drives both encoding and decoding. The basis is evaluated once, at the
candidate places; the information set, the evaluation matrix, the decoder and
both sides' encoding coefficients all come from that one evaluation and its
one elimination.

Matrices to be multiplied are plain integer arrays taken mod q. Matrix A is
always cut into m row blocks and B into n column blocks; each worker receives
one masked combination of the blocks of each side and returns the product of
its two shares. The phi functions encode the side whose partition count is
even (A unless m is odd), the gamma functions the other; that choice changes
no share's shape. derive_parameters makes it, and PoleStructure.sides records
it per input side for the encoder and the secrecy audit alike. The
recovery-pole rows of the inverse evaluation matrix, computed once at build
time, map the N responses to every block product in one product mod q.
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
from .function_field import HyperellipticCurve, scan_run_x


@dataclass(frozen=True)
class SchemeParams:
    """User-facing parameters: partition counts m, n; collusion tolerance x."""

    m: int
    n: int
    x: int
    q: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_positive(self.m, self.n, self.x)


def _check_positive(m: int, n: int, x: int) -> None:
    if m < 1 or n < 1 or x < 1:
        raise ValueError(f"m, n, x must be positive, got ({m}, {n}, {x})")


@dataclass(frozen=True)
class PoleStructure:
    """The pole order sequences and their outer-sum table.

    m is the even partition count, the one phi encodes; swapped is True when
    that is the user's n, so that phi encodes B and gamma encodes A.
    """

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
    swapped: bool

    @property
    def sides(self) -> dict[str, tuple[tuple[int, ...], int, int]]:
        """Per input side: (pole orders of its x masks and blocks, block count, cut axis).

        A is cut into row blocks and B into column blocks.
        """
        phi_side, gamma_side = (self.phi, self.m), (self.gamma, self.n)
        a, b = (gamma_side, phi_side) if self.swapped else (phi_side, gamma_side)
        return {"A": (*a, 0), "B": (*b, 1)}

    @property
    def n_workers(self) -> int:
        return len(self.distinct_poles)

    @property
    def worker_bound(self) -> int:
        """Upper bound on the worker count, (3mn + m)/2 + 3x - 2."""
        return worker_bound(self.m, self.n, self.x)

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
            "swapped": self.swapped,
        }


def distinct_sums(a, b) -> tuple[int, ...]:
    """The distinct entries of the outer-sum table of two integer sequences, ascending."""
    return tuple(sorted({u + v for u in a for v in b}))


def worker_bound(m: int, n: int, x: int) -> int:
    """Upper bound on the worker count for an even m: (3mn + m)/2 + 3x - 2."""
    return (3 * m * n + m) // 2 + 3 * x - 2


def orient(m: int, n: int, x: int) -> tuple[int, int, bool]:
    """(m, n) reordered so that the even partition count comes first, and whether they swapped.

    m, n and x are checked as the user gave them, before any swap, so that an
    error names the parameter that is wrong.
    """
    _check_positive(m, n, x)
    if m % 2 == 0:
        return m, n, False
    if n % 2 == 0:
        return n, m, True
    raise ValueError(f"at least one of m={m}, n={n} must be even")


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
    # gamma's block orders are j*m + 2x - 2 for j = 1..n. Built from ranges, not
    # generators: CPython sizes tuple(range) exactly, while tuple(generator)
    # resizes, and in a long sweep the resized tuples fill its free lists
    masks = tuple(range(0, 2 * x, 2))
    phi = masks + tuple(range(d, d + m))
    gamma = masks + tuple(range(m + 2 * x - 2, m * n + 2 * x - 1, m))
    return d, phi, gamma


def derive_parameters(m: int, n: int, x: int) -> PoleStructure:
    """Pole structure for partition counts m, n (one of them even) and collusion x."""
    m, n, swapped = orient(m, n, x)
    d, phi, gamma = pole_sequences(m, n, x)
    recovery = tuple(sorted(phi[x + j] + gamma[x + jp] for j in range(m) for jp in range(n)))
    poles = PoleStructure(
        m=m, n=n, x=x, d=d, g=(d - 1) // 2, phi=phi, gamma=gamma,
        table=tuple(tuple(p + w for w in gamma) for p in phi),
        distinct_poles=distinct_sums(phi, gamma), recovery_poles=recovery, swapped=swapped,
    )

    # structural guarantees of the sequence choice; checked explicitly, not by
    # assert, so that they still hold under python -O
    cutoff = poles.interference_degree
    guarantees = {
        "phi and gamma have distinct entries":
            len(set(phi)) == len(phi) and len(set(gamma)) == len(gamma),
        "every pole order is even or at least d":
            all(w % 2 == 0 or w >= d for w in phi + gamma),
        "recovery poles are distinct": len(set(recovery)) == m * n,
        "recovery poles lie above the interference degree": all(w > cutoff for w in recovery),
        "mask products stay at or below the interference degree": all(
            poles.table[j][jp] <= cutoff
            for j in range(m + x) for jp in range(n + x)
            if j < x or jp < x
        ),
        "worker count is within its bound": poles.n_workers <= poles.worker_bound,
    }
    broken = [name for name, holds in guarantees.items() if not holds]
    if broken:
        raise RuntimeError(f"pole structure for m={m}, n={n}, x={x} breaks: {'; '.join(broken)}")
    return poles


def smallest_admissible_field(d: int, required_places: int) -> int:
    """Smallest odd prime q > d whose curve has at least required_places distinct-x places.

    Each candidate is counted by scan_run_x, which builds no curve and evaluates no f(x).
    """
    g = (d - 1) // 2
    # any prime at or above this square is sufficient by the point-count bound
    t = g + math.isqrt(g * g + 2 * required_places) + 2
    cap = t * t + 2000
    # a curve over F_q has at most q distinct x-coordinates, so no smaller q passes
    q = max(d + 2, required_places) | 1
    while q <= cap:
        if is_prime(q) and len(scan_run_x(q, d, required_places)) >= required_places:
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

    def __init__(self, params, poles, curve, candidate_places):
        self.params = params
        self.poles = poles
        self.curve = curve
        self.q = q = curve.field.q
        self.candidate_places = candidate_places

        # one elimination of the basis evaluated at the candidate places picks
        # the information set and factors its square submatrix S = V^T
        evals = curve.evaluation_matrix(poles.distinct_poles, candidate_places)
        information_set = linalg.LUFactorization(evals, q)
        self.column_indices = information_set.columns
        self.places = [candidate_places[c] for c in self.column_indices]
        # V[i][t] = basis_t(P_i), invertible because the places form an information set
        s_matrix = evals[:, self.column_indices]
        self.v_matrix = s_matrix.T.copy()
        # decoder rows: the coefficients of the recovery poles, in (j, j')
        # row-major order; rows of V^-1 are columns of S^-1
        index = {w: t for t, w in enumerate(poles.distinct_poles)}
        recovery = [index[poles.recovery_pole(j, jp)]
                    for j in range(poles.m) for jp in range(poles.n)]
        self._decoder = information_set.inverse_columns(recovery).T.copy()

        # phi and gamma both start at pole order 0, so each of their entries is
        # itself a distinct pole and its evaluations are a row of S. Per side:
        # (coefficients of its x masks and blocks, block count, cut axis)
        self._sides = {side: (s_matrix[[index[w] for w in orders]], count, axis)
                       for side, (orders, count, axis) in poles.sides.items()}

    @property
    def n_workers(self) -> int:
        return self.poles.n_workers

    # -- encoding ----------------------------------------------------------

    def encode(self, side: str, matrix, rng) -> EncodedShares:
        """Masked shares of one input side; rng supplies the uniform masks."""
        if side not in self._sides:
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
        q = self.q
        mat = np.asarray(matrix, dtype=np.int64) % q
        if mat.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
        coeff, count, axis = self._sides[side]
        if mat.shape[axis] % count:
            raise ValueError(f"{('row', 'column')[axis]} count {mat.shape[axis]} is not "
                             f"divisible by the partition count {count}")
        blocks = np.split(mat, count, axis=axis)
        masks = [rng.integers(0, q, size=blocks[0].shape, dtype=np.int64)
                 for _ in range(self.poles.x)]
        # share_i = sum_t coeff[t, i] * stacked[t], one product mod q
        stacked = np.stack(masks + blocks)
        flat = linalg._matmul_reduced(coeff.T, stacked.reshape(len(stacked), -1), q)
        shares = flat.reshape((self.n_workers,) + stacked.shape[1:])
        return EncodedShares(side, list(shares))

    # -- worker computation and decoding -----------------------------------

    def worker_products(self, shares_a: EncodedShares, shares_b: EncodedShares):
        """The per-worker products of the two shares, in worker order."""
        if shares_a.side != "A" or shares_b.side != "B":
            raise ValueError("worker_products expects an A-side and a B-side encoding")
        return [linalg.matmul_mod(sa, sb, self.q)
                for sa, sb in zip(shares_a.shares, shares_b.shares, strict=True)]

    def decode(self, responses) -> np.ndarray:
        """Recover the full product from all N worker responses."""
        if len(responses) != self.n_workers:
            raise ValueError(f"need all {self.n_workers} responses, got {len(responses)}")
        stacked = np.stack([np.asarray(r, dtype=np.int64) for r in responses])
        if stacked.ndim != 3:
            raise ValueError(f"responses must be 2-D matrices, got shape {stacked.shape[1:]}")
        np.remainder(stacked, self.q, out=stacked)
        n, br, bc = stacked.shape
        blocks = linalg._matmul_reduced(self._decoder, stacked.reshape(n, br * bc), self.q)
        # the decoder's rows run over (phi block, gamma block), so B's blocks
        # come first when phi encodes B
        blocks = blocks.reshape(self.poles.m, self.poles.n, br, bc)
        if self.poles.swapped:
            blocks = blocks.swapaxes(0, 1)
        return blocks.transpose(0, 2, 1, 3).reshape(self.params.m * br, self.params.n * bc)

    # -- verification helpers -----------------------------------------------

    def security_generator(self, side: str = "A") -> np.ndarray:
        """Evaluations of the x mask functions at the information places (x by N)."""
        if side not in self._sides:
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
        return self._sides[side][0][: self.poles.x].copy()

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
            "curve": {"roots": list(self.curve.roots)},
            "places": [{"x": p.x, "y": p.y} for p in self.places],
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
    available = len(scan_run_x(q, poles.d, required))
    if available < required:
        raise ValueError(
            f"field order {q} admits only {available} usable places; need at least {required}"
        )


def build_scheme(params: SchemeParams) -> SchemeInstance:
    """Derive the pole structure, pick the field, and assemble the full scheme."""
    poles = derive_parameters(params.m, params.n, params.x)

    if params.q is None:
        q = smallest_admissible_field(poles.d, poles.code_degree + 1)
    else:
        q = params.q
        check_field_order(poles, q)

    # a nonzero function of pole order <= code_degree has at most code_degree
    # zeros, so the first code_degree + 1 places already have full rank N, and
    # greedy leftmost pivots pick the same columns from them as from all places
    curve = HyperellipticCurve(PrimeField(q), range(poles.d))
    candidates = curve.select_distinct_x_places(poles.code_degree + 1)
    return SchemeInstance(params, poles, curve, candidates)


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
    """Read a matrix written by write_matrix_csv; entries are reduced mod the header's q."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        rows, cols, q = (int(v) for v in lines[0].split(","))
    except ValueError:
        raise ValueError(f"{path}: malformed header {lines[0]!r}; expected rows,cols,q") from None
    if not 2 <= q < linalg.INT64_EXACT:
        raise ValueError(f"{path}: field order {q} in the header must lie in [2, 2^63)")
    if min(rows, cols) == 0 and len(lines) == 1:
        # a matrix without entries has no body, or only blank lines
        return np.zeros((rows, cols), dtype=np.int64), q
    try:
        mat = np.array([[int(v) for v in ln.split(",")] for ln in lines[1:]], dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{path}: an entry lies outside the int64 range [-2^63, 2^63)") from None
    except ValueError:
        raise ValueError(f"{path}: malformed body; expected {rows} lines of {cols} integers") from None
    if mat.shape != (rows, cols):
        raise ValueError(f"{path}: header promises {rows}x{cols}, body is {mat.shape}")
    return mat % q, q
