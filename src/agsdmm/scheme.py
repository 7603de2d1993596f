"""End-to-end construction of the secure matrix-multiplication scheme.

Pipeline: partition parameters (m, n, X) fix a curve degree d and two pole
order sequences phi and gamma; the outer-sum table of those sequences
determines the worker count N (its number of distinct entries) and which
table cells carry the data products. A field size is then chosen so the
curve has enough places with pairwise distinct x-coordinates, N of them are
picked as an information set, and the resulting N x N evaluation matrix
drives both encoding and decoding. When the leading N candidates are an
information set, the decoder takes one B x B elimination
(_leading_square_decoder); otherwise one elimination of the basis evaluated
at every candidate picks the greedy leftmost information set.

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
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .field import check_odd_prime, is_prime
from .function_field import evaluation_matrix, scan_run_x, select_distinct_x_places

# the largest pole table, (m + x)(n + x) entries, and evaluation matrix,
# N (code_degree + 1) int64 entries, that derive_parameters and build_scheme
# will make; (32, 32, 16) needs 2,304 entries and 27 MB, (200, 200, 10) 27 GB
POLE_TABLE_CAP = 10**6
EVALUATION_BYTES_CAP = 2**30


@dataclass(frozen=True)
class SchemeParams:
    """User-facing parameters: partition counts m, n; collusion tolerance x.

    seed is a label that nothing reads: the build is deterministic and the
    masks come from each run. It stays, as the descriptor's seed field and as
    build --seed, so recorded descriptors and callers are unchanged.
    """

    m: int
    n: int
    x: int
    q: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_positive(self.m, self.n, self.x)
        try:
            seed_ok = operator.index(self.seed) >= 0
        except TypeError:
            seed_ok = False
        if not seed_ok:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.q is not None:
            object.__setattr__(self, "q", linalg._check_modulus(self.q))


def _check_positive(m: int, n: int, x: int) -> None:
    _check_integers(m, n, x)
    if m < 1 or n < 1 or x < 1:
        raise ValueError(f"m, n, x must be positive, got ({m}, {n}, {x})")


def _check_integers(m: int, n: int, x: int) -> None:
    # refuses what operator.index refuses: floats, strings, None
    try:
        operator.index(m), operator.index(n), operator.index(x)
    except TypeError:
        raise ValueError(f"m, n, x must be integers, got ({m!r}, {n!r}, {x!r})") from None


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


def worker_count(m: int, n: int, x: int) -> int:
    """Worker count for an even m in closed form: mn + m + 3x - 2 + (n - 1) min(x, m/2).

    It is the number of distinct entries of the outer-sum table of phi and
    gamma from pole_sequences. With E = {0, 2, ..., 2x - 2}, phi is E plus the
    interval [d, d + m - 1], and gamma is E plus the progression jm + 2x - 2,
    j = 1..n. The interval's sums with E and with the progression tile
    [d, 2mn + 4x - 4]; every other sum is even and at most mn + 4x - 4, so
    inside that interval when at or above d. Below d, E + E is the even
    numbers up to 4x - 4, and E plus the j-th term, j < n, the x even numbers
    from jm + 2x - 2 (the last from d - 1): of the (n - 1)m/2 + x even numbers
    below d they miss max(0, m/2 - x) before each of those n - 1 runs. The
    count therefore meets worker_bound exactly when x >= m/2 or n = 1.
    """
    _curve_degree(m, n, x)
    return _worker_count(m, n, x)


def _worker_count(m, n, x):
    return m * n + m + 3 * x - 2 + (n - 1) * _min(x, m // 2)


def _min(a, b):
    # of ints, or of integer arrays; np.minimum refuses ints past int64 (OverflowError)
    return (a + b - abs(a - b)) // 2


def orient(m: int, n: int, x: int) -> tuple[int, int, bool]:
    """(m, n) reordered so that the even partition count comes first, and whether they swapped.

    m, n and x are checked as the user gave them, before any swap, so that an
    error names the parameter that is wrong.
    """
    _check_positive(m, n, x)
    if m % 2 and n % 2:
        raise ValueError(f"at least one of m={m}, n={n} must be even")
    return (m, n, False) if m % 2 == 0 else (n, m, True)


def _curve_degree(m: int, n: int, x: int) -> int:
    """d = m(n - 1) + 2x - 1 for an even m, refusing parameters the construction does not support."""
    _check_integers(m, n, x)
    if m < 2 or m % 2:
        raise ValueError(f"m must be even and >= 2, got {m} (swap orientation for odd m)")
    if n < 1 or x < 1:
        raise ValueError(f"n and x must be >= 1, got n={n}, x={x}")
    d, supported = _degree(m, n, x)
    if not supported:
        raise ValueError(
            f"unsupported parameters (m={m}, n={n}, x={x}): curve degree d={d} < 3 "
            "degenerates to the genus-0 case"
        )
    return d


def _degree(m, n, x):
    # d of valid counts with m even, and whether the construction supports it; of ints or arrays
    return (d := m * (n - 1) + 2 * x - 1), d >= 3


def pole_sequences(m: int, n: int, x: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Curve degree d and the two pole order sequences for an even-m orientation."""
    d = _curve_degree(m, n, x)
    # gamma's block orders are j*m + 2x - 2 for j = 1..n
    masks = tuple(range(0, 2 * x, 2))
    phi = masks + tuple(range(d, d + m))
    gamma = masks + tuple(range(m + 2 * x - 2, m * n + 2 * x - 1, m))
    return d, phi, gamma


def derive_parameters(m: int, n: int, x: int) -> PoleStructure:
    """Pole structure for partition counts m, n (one of them even) and collusion x.

    Refuses a pole table of more than POLE_TABLE_CAP entries before building it.
    """
    m, n, swapped = orient(m, n, x)
    entries = (m + x) * (n + x)
    if entries > POLE_TABLE_CAP:
        raise ValueError(
            f"pole table of {entries} entries exceeds the cap of {POLE_TABLE_CAP} entries")
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
        "both sides' mask orders are 0, 2, ..., 2X - 2":
            phi[:x] == gamma[:x] == tuple(range(0, 2 * x, 2)),
        "every pole order is even or at least d":
            all(w % 2 == 0 or w >= d for w in phi + gamma),
        "recovery poles are distinct": len(set(recovery)) == m * n,
        "recovery poles lie above the interference degree": all(w > cutoff for w in recovery),
        "mask products stay at or below the interference degree": all(
            poles.table[j][jp] <= cutoff
            for j in range(m + x) for jp in range(n + x)
            if j < x or jp < x
        ),
        "worker count equals its closed form": poles.n_workers == worker_count(m, n, x),
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
    """One masked share per worker for one input side, each an int32 array of residues mod q."""

    side: str
    shares: list[np.ndarray]

    def __len__(self):
        return len(self.shares)


def _leading_square_decoder(q: int, poles: PoleStructure, places: np.ndarray, recovery):
    """Rows `recovery` of V^-1, V the basis at the N places, or None when V is singular.

    The basis is x^a, a in A, and y x^j, j < B. With W[i, k] = x_i^k, W^-1 V
    is the identity columns at A next to G = W^-1 diag(y) W[:, :B], so for C
    = [0, N) minus A, V c = h reads G[C] beta = z[C], alpha_a = z_a - G[a] beta
    (z = W^-1 h): only G[C] is eliminated. V is singular outright when more
    places have y = 0 than A has members.
    """
    w = np.array(poles.distinct_poles, dtype=np.int64)
    n = len(w)
    odd = w % 2 == 1
    exponents = np.where(odd, (w - poles.d) // 2, w // 2)
    a_part = exponents[~odd]
    b = int(np.count_nonzero(odd))
    # distinct x is _inverse_vandermonde's own check
    if not (np.array_equal(exponents[odd], np.arange(b)) and a_part.max(initial=0) < n):
        raise RuntimeError("the basis is not x^a, a < N, and y x^j, j < B")
    if np.count_nonzero(places[:, 1] == 0) > len(a_part):
        return None
    rec = np.asarray(recovery, dtype=np.int64)
    rec_y = odd[rec]
    # rows C of W^-1, then those at the x exponents of the recovery poles
    in_a = np.zeros(n, dtype=bool)
    in_a[a_part] = True
    c = np.flatnonzero(~in_a)
    w_inv = linalg._inverse_vandermonde(places[:, 0], np.concatenate((c, exponents[rec[~rec_y]])), q)
    y_part = evaluation_matrix(q, poles.d, w[odd], places)
    g = linalg._matmul_reduced(w_inv, y_part.T, q)
    del y_part
    try:
        g_inv = linalg.LUFactorization(g[:b], q).inverse_columns(range(b))
    except linalg.SingularMatrixError:
        return None
    # beta = G[C]^-1 z[C]; the x rows first take G[a] G[C]^-1, then z_a minus that
    functionals = np.empty((len(rec), b), dtype=np.int64)
    functionals[rec_y] = g_inv[exponents[rec[rec_y]]]
    functionals[~rec_y] = linalg._matmul_reduced(g[b:], g_inv, q)
    decoder = linalg._matmul_reduced(functionals, w_inv[:b], q)
    decoder[~rec_y] = (w_inv[b:] - decoder[~rec_y]) % q
    return decoder


def _mask_code_is_mds(xs, x: int) -> bool:
    """Whether every x columns of the mask generator, rows xs^k for k < x, are invertible.

    derive_parameters checks that both sides' masks are 1, x, ..., x^(x-1), so
    any x workers' mask block is the Vandermonde matrix at their xs: all are
    invertible iff the xs are pairwise distinct or x = 1, where the block is [1].
    """
    xs = np.sort(xs)  # np.unique would import numpy.ma, 1.7 MB, on its first call
    return x == 1 or bool((xs[1:] != xs[:-1]).all())


class SchemeInstance:
    """A fully built scheme: field order, information-set places, and evaluation system.

    candidate_places is a (k, 2) int64 array of (x, y) rows on the curve of
    degree poles.d over F_q; places holds the rows of the information set,
    which is refused unless its x-coordinates certify X-secrecy (_mask_code_is_mds).
    """

    def __init__(self, params, poles, q, candidate_places):
        self.params = params
        self.poles = poles
        self.q = q

        # decoder rows: the coefficients of the recovery poles, in (j, j')
        # row-major order
        index = {w: t for t, w in enumerate(poles.distinct_poles)}
        recovery = [index[poles.recovery_pole(j, jp)]
                    for j in range(poles.m) for jp in range(poles.n)]
        n = poles.n_workers
        decoder = _leading_square_decoder(q, poles, candidate_places[:n], recovery)
        if decoder is None:
            # one elimination at every candidate picks the greedy leftmost
            # information set and factors S = V^T; rows of V^-1 are columns of S^-1
            evals = evaluation_matrix(q, poles.d, poles.distinct_poles, candidate_places)
            information_set = linalg.LUFactorization(evals, q)
            del evals
            self.column_indices = information_set.columns
            decoder = information_set.inverse_columns(recovery).T
        else:
            self.column_indices = list(range(n))
        self.places = candidate_places[self.column_indices]
        if not _mask_code_is_mds(self.places[:, 0], poles.x):
            raise ValueError(f"the information set repeats an x-coordinate, so some "
                             f"X = {poles.x} workers' mask block is singular")
        self._decoder = np.ascontiguousarray(decoder)

        # per side: (evaluations of its x masks and blocks at the places,
        # which are its encoding coefficients, block count, cut axis)
        (a_orders, *a_cut), (b_orders, *b_cut) = poles.sides.values()
        coeffs = evaluation_matrix(q, poles.d, a_orders + b_orders, self.places)
        self._sides = {"A": (coeffs[:len(a_orders)], *a_cut), "B": (coeffs[len(a_orders):], *b_cut)}

    @property
    def n_workers(self) -> int:
        return self.poles.n_workers

    # -- encoding ----------------------------------------------------------

    def encode(self, side: str, matrix, rng) -> EncodedShares:
        """Masked shares of one input side; rng supplies the uniform masks."""
        if side not in self._sides:
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
        q = self.q
        mat = linalg._reduced(matrix, q)
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
        flat = linalg._matmul_reduced(coeff.T, stacked.reshape(len(stacked), -1), q, np.int32)
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
        try:
            # one C pass over the responses; np.stack spends 0.1 ms of Python
            # per 300 of them, and is kept for its message on unequal shapes
            stacked = np.array(responses)
        except ValueError:
            stacked = np.stack(responses)
        stacked = linalg._reduced(stacked, self.q)
        if stacked.ndim != 3:
            raise ValueError(f"responses must be 2-D matrices, got shape {stacked.shape[1:]}")
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
            "curve": {"roots": list(range(self.poles.d))},
            "places": [{"x": x, "y": y} for x, y in self.places.tolist()],
        }

    def __repr__(self):
        p = self.params
        return (f"SchemeInstance(m={p.m}, n={p.n}, x={p.x}, q={self.q}, "
                f"N={self.n_workers})")


def check_field_order(poles: PoleStructure, q: int) -> None:
    """Validate an explicitly requested field order against a pole structure."""
    q = linalg._check_modulus(q)
    check_odd_prime(q)
    if q <= poles.d:
        raise ValueError(f"field order {q} too small: need q > d = {poles.d} distinct roots")
    required = poles.code_degree + 1
    available = len(scan_run_x(q, poles.d, required))
    if available < required:
        raise ValueError(
            f"field order {q} admits only {available} usable places; need at least {required}"
        )


def build_scheme(params: SchemeParams) -> SchemeInstance:
    """Derive the pole structure, pick the field, and assemble the full scheme.

    An evaluation matrix of more than EVALUATION_BYTES_CAP bytes is refused
    before the field search.
    """
    poles = derive_parameters(params.m, params.n, params.x)
    size = (poles.n_workers, poles.code_degree + 1)
    if 8 * math.prod(size) > EVALUATION_BYTES_CAP:
        raise ValueError(f"evaluation matrix of {size[0]} x {size[1]} int64 entries "
                         f"exceeds the cap of {EVALUATION_BYTES_CAP} bytes")

    if params.q is None:
        q = smallest_admissible_field(poles.d, poles.code_degree + 1)
    else:
        q = params.q
        check_field_order(poles, q)

    # a nonzero function of pole order <= code_degree has at most code_degree
    # zeros, so the first code_degree + 1 places already have full rank N, and
    # greedy leftmost pivots pick the same columns from them as from all places
    candidates = select_distinct_x_places(q, poles.d, poles.code_degree + 1)
    return SchemeInstance(params, poles, q, candidates)


# -- persistence -------------------------------------------------------------


def save_scheme(instance: SchemeInstance, path) -> None:
    Path(path).write_text(json.dumps(instance.to_dict(), indent=2) + "\n")


def load_scheme(path) -> SchemeInstance:
    """Rebuild a scheme from its descriptor and verify the stored derived fields."""
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as err:  # RecursionError: nested too deep
        raise ValueError(f"{path}: scheme descriptor is not readable JSON: {err}") from None
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
    mismatched = [k for k in data if k not in rebuilt or rebuilt[k] != data[k]]
    if mismatched:
        raise ValueError(f"{path}: scheme descriptor does not match its rebuild: {mismatched}")
    return instance


def _matrix_texts(matrices, start, sep, row_sep, end, per_entry) -> list[str]:
    """Each matrix as start, its entries as str(v) with sep within and row_sep between rows, end.

    When hi - lo, the span of the 2-D integer matrices' entries, is below
    their count, one table of str(v) for v in [lo, hi] is indexed with m - lo
    and each text is one join of tokens that carry their separators; other
    matrices, and all when the span is wider, are per_entry(m).
    """
    def tabled(m):
        return m.ndim == 2 and m.size > 0 and m.dtype.kind == "i"

    flat = [m.ravel() for m in matrices if tabled(m)]
    if flat:
        entries = np.concatenate(flat)
        lo, hi = int(entries.min()), int(entries.max())
    if not flat or hi - lo >= entries.size:
        return [per_entry(m) for m in matrices]
    digits = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
    within, row_end = digits + sep, digits + row_sep
    texts = []
    for m in matrices:
        if not tabled(m):
            texts.append(per_entry(m))
            continue
        index = np.subtract(m, lo, dtype=np.int64)
        tokens = within[index]
        tokens[:, -1] = row_end[index[:, -1]]
        tokens[-1, -1] = digits[index[-1, -1]] + end
        texts.append(start + "".join(tokens.ravel().tolist()))
    return texts


def write_matrix_csv(path, matrix, q: int) -> None:
    """Write a matrix as CSV: a rows,cols,q header line, then one line per row.

    The body is joined from a table of decimal tokens (_matrix_texts) when
    the entries span fewer values than they number, as they do once q is at
    most that number; else it takes one str() per entry.
    """
    mat = linalg.as_matrix(matrix, q)
    [body] = _matrix_texts([mat], "", ",", "\n", "\n", lambda m: "".join(
        ",".join(map(str, row)) + "\n" for row in m.tolist()))
    Path(path).write_text(f"{mat.shape[0]},{mat.shape[1]},{q}\n{body}")


def read_matrix_csv(path) -> tuple[np.ndarray, int]:
    """Read a matrix written by write_matrix_csv; entries are reduced mod the header's q."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        rows, cols, q = (int(v) for v in lines[0].split(","))
    except ValueError:
        raise ValueError(f"{path}: malformed header {lines[0]!r}; expected rows,cols,q") from None
    try:
        linalg._check_modulus(q)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if min(rows, cols) == 0 and len(lines) == 1:
        # a matrix without entries has no body, or only blank lines
        return np.zeros((rows, cols), dtype=np.int64), q
    # numpy's C reader takes a subset of what int() takes, at the same values;
    # the rest (1_0, out-of-int64, malformed) goes through int() per entry.
    # numpy releases that read such an entry as a float (1.0, 1e3, 2^63) warn
    # first; as an error, that warning sends the body to int() too
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mat = np.loadtxt(lines[1:], delimiter=",", dtype=np.int64, ndmin=2,
                             comments=None) if len(lines) > 1 else None
    except (ValueError, Warning):
        mat = None
    if mat is None:
        try:
            mat = np.array([[int(v) for v in ln.split(",")] for ln in lines[1:]], dtype=np.int64)
        except OverflowError:
            raise ValueError(f"{path}: an entry lies outside the int64 range [-2^63, 2^63)") from None
        except ValueError:
            raise ValueError(
                f"{path}: malformed body; expected {rows} lines of {cols} integers") from None
    if mat.shape != (rows, cols):
        raise ValueError(f"{path}: header promises {rows}x{cols}, body is {mat.shape}")
    return mat % q, q
