"""The two federated algorithms over (u, v_1..v_n).

Both run T outer rounds. Each round samples m of n clients; every sampled
client takes K simultaneous stochastic gradient steps on its copies of
(u, v_i), then personal variables merge with outer step eta_v and the
server averages returned u's with outer step eta_u. The control-variate
variant additionally corrects each local u-direction by c - c_i and
refreshes (c_i, c) from the realized local progress, which removes the
client-drift bias caused by gradient dissimilarity.

Client state is held as arrays: V (n, d_v) of personal blocks and, for the
corrected variant, C (n, d_u) of client control variates. A round gathers
the sampled rows, runs all their local steps in one oracle `local_steps`
call with the correction rows Corr = C[ids] - c (zeros for fedavg_p), and
writes the merged rows back; merge, aggregation and the control update are
one array expression each. Metrics come from one `value_and_grads` call
over all n clients, and the control variates start from one `stoch_grads`
call over all n clients.

Determinism: every draw comes from a stream keyed by (seed, tag, t, i), so
a run is a pure function of (inputs, seed). Each sampled client still draws
from its own ("local", t, i) stream, in ascending client order, and every
batched expression performs per row the same floating-point operations, in
the same order, as a per-client loop would, so batching changes no bit.

Streams are drawn ahead of the rounds. Client sampling never reads the
iterates, so `round_streams` plans a block of rounds before they run: it
draws each round's sampled ids from its ("sample", t) stream and derives
the Philox keys of all the block's ("local", t, i) streams in one
`rng.stream_keys` call. Each round then gets m pooled generators rewound to
its keys (`rng.StreamPool.reset`), which draw exactly what `rng.stream`
would. A block is `_KEY_BLOCK // m` rounds (at least one), so the plan's
memory does not grow with T. `run_round` does only the round's arithmetic
on the ids and generators it is handed; its `wall_ms` covers neither the
planning nor the generator resets.

Replicas. Runs that differ only in their seed run in lock-step as one
replica run (`run_replicas`): the state gains a leading replica axis R,
u (R, d_u), V (R, n, d_v) and, for the corrected variant, c (R, d_u) and
C (R, n, d_u). Every sampled client starts from the server's u and its own
v_i, so R replicas of n clients are the R * n clients of one joined
objective (`objectives.join_replicas`), replica r's client i its client
r * n + i. Each replica keeps its own ("cv_init", i) and round streams; a
round makes one local-step call, one expression each for merge,
aggregation and control, one metrics pass and one finite check over all R.
Sums run over the same axis of the same rows in the same order as in a run
alone, so every replica is bitwise its config run alone; `run_training` is
the case R = 1.

A run's rounds come from one entry point, `start_rounds`: it checks the
run's invariants (a known algorithm, m <= n, gamma_u > 0 for the corrected
variant) before any draw and builds the state, the corrected variant's with
control variates, then hands back a lazy iterator that runs one round per
step. `run_replicas` and `run_training` drain it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import metrics
from .objectives import ObjectiveOracle, _check_int, _finite_nonneg, join_replicas
from .rng import StreamPool, check_seed, stream_keys

FEDAVG_P = "fedavg_p"
SCAFFOLD_P = "scaffold_p"
ALGORITHMS = (FEDAVG_P, SCAFFOLD_P)

# ("local", t, i) addresses planned per block of rounds
_KEY_BLOCK = 4096


@dataclass(frozen=True)
class HyperParams:
    gamma_u: float
    gamma_v: float
    eta_u: float
    eta_v: float
    K: int
    T: int
    m: int

    def __post_init__(self):
        # zero is allowed (a zero step is the identity); start_rounds
        # demands gamma_u > 0 for the corrected algorithm's control update
        for name in ("gamma_u", "gamma_v", "eta_u", "eta_v"):
            _finite_nonneg(name, getattr(self, name))
        for name, least in (("K", 1), ("T", 0), ("m", 1)):
            _check_int(name, getattr(self, name), least)


@dataclass
class ServerState:
    """u and, for the corrected variant only, the control-variate mean c:
    (d_u,) each for one run, (R, d_u) in the replica round."""

    u: np.ndarray
    c: np.ndarray | None = None


class ClientRow(NamedTuple):
    v: np.ndarray
    c_i: np.ndarray | None


@dataclass
class ClientStates:
    """All n clients' state as rows: V (n, d_v), C (n, d_u) or None for
    one run, with a leading replica axis (R, n, .) in the replica round.

    Iterating one run's states yields per-client `ClientRow` views into the
    arrays.
    """

    V: np.ndarray
    C: np.ndarray | None = None

    def __iter__(self):
        C = [None] * len(self.V) if self.C is None else self.C
        return (ClientRow(v, c_i) for v, c_i in zip(self.V, C))


@dataclass(frozen=True)
class RoundTrace:
    t: int
    f_value: float
    grad_norm_u: float
    grad_norm_v: float
    grad_norm_v_hat: float
    sampled: tuple[int, ...]  # ascending, 1-based
    wall_ms: float


@dataclass(frozen=True)
class TrainingResult:
    traces: list[RoundTrace]
    server: ServerState
    clients: ClientStates

    @property
    def u(self) -> np.ndarray:
        return self.server.u

    @property
    def v_all(self) -> np.ndarray:
        return self.clients.V

    @classmethod
    def of_replica(cls, r: int, traces: list[RoundTrace], server: ServerState,
                   clients: ClientStates) -> "TrainingResult":
        """Replica r's run: its traces and views of its rows of the replica
        (server, clients)."""
        return cls(traces=traces,
                   server=ServerState(u=server.u[r], c=None if server.c is None else server.c[r]),
                   clients=ClientStates(V=clients.V[r],
                                        C=None if clients.C is None else clients.C[r]))


def sample_clients(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random m-subset of {0..n-1}, returned ascending.

    Partial Fisher-Yates: m swaps into the prefix, first m entries taken.
    The m swap targets come from one draw, r_j uniform on {j..n-1}, value
    for value the m scalar draws rng.integers(j, n) in order. Needs
    1 <= m <= n, which `start_rounds` checks.
    """
    idx = list(range(n))
    for j, r in enumerate(rng.integers(np.arange(m), n).tolist()):
        idx[j], idx[r] = idx[r], idx[j]
    return np.array(sorted(idx[:m]))


def round_streams(seed: int, n: int, m: int, T: int):
    """Yield (t, ids, rngs) for each round t < T: the m ascending
    sampled ids drawn from the ("sample", t) stream, and m generators at the
    starts of the ("local", t, i) streams of those ids, in order.

    Rounds are planned `_KEY_BLOCK // m` at a time (at least one): one
    pooled sampler reset per round and one `stream_keys` call for all the
    block's local streams. The m generators are pooled and rewound for each
    round, so a round's generators stay valid only until the next round is
    drawn.
    """
    sampler, local = StreamPool(1), StreamPool(m)
    block = max(1, _KEY_BLOCK // m)
    for start in range(0, T, block):
        t = np.arange(start, min(start + block, T))
        sample_keys = stream_keys(seed, "sample", t[:, None]).tolist()
        ids = np.empty((len(t), m), dtype=np.int64)
        for row, key in zip(ids, sample_keys):
            row[:] = sample_clients(n, m, sampler.reset([key])[0])
        paths = np.column_stack([np.repeat(t, m), ids.ravel()])
        keys = stream_keys(seed, "local", paths).reshape(len(t), m, 2)
        for tj, row, row_keys in zip(t.tolist(), ids, keys):
            yield tj, row, local.reset(row_keys.tolist())


def merge_personal(v_old, v_K, eta_v: float):
    """v^{t+1} = (1 - eta_v) v^t + eta_v v_K (eta_v may exceed 1)."""
    return (1.0 - eta_v) * v_old + eta_v * v_K


def aggregate_shared(u_old, U, eta_u: float):
    """u^{t+1} = (1 - eta_u) u^t + (eta_u/m) sum of the m returned rows of U
    (m, d_u), or of each replica's rows of U (R, m, d_u)."""
    return (1.0 - eta_u) * u_old + (eta_u / U.shape[-2]) * U.sum(axis=-2)


def init_control_variates(u0, v0_all, oracle, K: int, seed: int):
    """C rows c_i = (1/K) sum of K fresh stochastic u-gradients at (u0, v0_i);
    c = mean c_i. Returns (C, c).

    One `stoch_grads` call over all n clients, client i drawing its (K, .)
    block from its own ("cv_init", i) stream; the n stream keys are derived
    in one call. The K gradients are summed left to right for all clients
    at once. Needs K >= 1, which `HyperParams` checks; ValueError unless
    the u-block `stoch_grads` returns is (n, K, d_u).
    """
    ids = np.arange(oracle.n)
    rngs = StreamPool(oracle.n).reset(stream_keys(seed, "cv_init", ids[:, None]).tolist())
    G = oracle.stoch_grads(ids, u0, v0_all, K, rngs)[0]
    if G.shape != (oracle.n, K, oracle.d_u):
        raise ValueError(f"stoch_grads returned a u-block of shape {G.shape}, expected "
                         f"({oracle.n}, {K}, {oracle.d_u})")
    acc = np.zeros((oracle.n, oracle.d_u))
    for k in range(K):
        acc = acc + G[:, k]
    C = acc / K
    return C, C.mean(axis=0)


def update_client_control(c_i, c, u_t, u_i_next, K: int, gamma_u: float):
    """c_i^{t+1} = c_i - c + (u^t - u_i^{t+1}) / (K gamma_u)."""
    return c_i - c + (1.0 / (K * gamma_u)) * (u_t - u_i_next)


def update_server_control(c, deltas, n: int):
    """c^{t+1} = c + (1/n) sum over sampled clients of (c_i^{t+1} - c_i^t);
    deltas (m, d_u), or (R, m, d_u) per replica."""
    return c + deltas.sum(axis=-2) / n


def _check_finite(t: int, seeds, **blocks) -> None:
    for name, x in blocks.items():
        if x is not None and not np.isfinite(x).all():
            # blocks carry a leading replica axis: name the first bad replica
            r = int(np.argmin(np.isfinite(x).reshape(len(x), -1).all(axis=1)))
            raise FloatingPointError(
                f"non-finite {name} after round {t} in replica {r} (seed {seeds[r]}); "
                "step sizes too large?"
            )


def run_round(server: ServerState, clients: ClientStates, oracle: ObjectiveOracle,
              hp: HyperParams, t: int, ids: np.ndarray, rngs, seeds) -> list[RoundTrace]:
    """Outer round t of R replicas on their joined `oracle`: replica r's
    ascending sampled ids in ids[r] and one local generator per id in
    rngs[r] (as each replica's `round_streams` yields them); seeds[r] is
    replica r's run seed. Mutates server and the sampled client rows in
    place and returns one trace per replica; all R share the round's wall_ms.

    The control-variate correction applies when the state carries control
    variates (`clients.C`, set by `start_rounds` for scaffold_p). Metrics are
    computed on the post-round state over all n clients. Raises ValueError
    unless `local_steps` returns (R * m, d_u) and (R * m, d_v) rows, and
    FloatingPointError naming the first non-finite block among u, v, c and
    c_i, or f, and the first replica where it is non-finite, by index and
    seed.
    """
    corrected = clients.C is not None
    t0 = time.perf_counter()
    (R, m), n = ids.shape, clients.V.shape[1]
    rows = np.arange(R)[:, None]
    V_old = clients.V[rows, ids]
    C_old = clients.C[rows, ids] if corrected else None
    Corr = C_old - server.c[:, None] if corrected else np.zeros((R, m, oracle.d_u))
    # replica r's client i is the joined oracle's client r * n + i
    U_K, V_K = oracle.local_steps(
        (ids + n * rows).ravel(), np.repeat(server.u, m, axis=0), V_old.reshape(R * m, -1),
        Corr.reshape(R * m, -1), hp.K, hp.gamma_u, hp.gamma_v, [g for row in rngs for g in row]
    )
    if (U_K.shape, V_K.shape) != ((R * m, oracle.d_u), (R * m, oracle.d_v)):
        raise ValueError(f"local_steps returned rows of shapes {U_K.shape} and {V_K.shape}, "
                         f"expected ({R * m}, {oracle.d_u}) and ({R * m}, {oracle.d_v})")
    U_K, V_K = U_K.reshape(R, m, -1), V_K.reshape(R, m, -1)
    clients.V[rows, ids] = merge_personal(V_old, V_K, hp.eta_v)
    if corrected:
        C_next = update_client_control(C_old, server.c[:, None], server.u[:, None], U_K,
                                       hp.K, hp.gamma_u)
        clients.C[rows, ids] = C_next
        server.c = update_server_control(server.c, C_next - C_old, n)
    server.u = aggregate_shared(server.u, U_K, hp.eta_u)
    _check_finite(t, seeds, u=server.u, v=clients.V, c=server.c, c_i=clients.C)

    metric_rows = metrics.round_metrics(oracle, server.u, clients.V, hp.m)
    _check_finite(t, seeds, f=metric_rows[0])
    wall_ms = (time.perf_counter() - t0) * 1e3
    return [RoundTrace(t=t, f_value=f, grad_norm_u=g_u, grad_norm_v=g_v, grad_norm_v_hat=g_v_hat,
                       sampled=tuple(sampled), wall_ms=wall_ms)
            for f, g_u, g_v, g_v_hat, sampled
            in zip(*(x.tolist() for x in metric_rows), (ids + 1).tolist())]


def start_rounds(algorithm: str, oracles, hp: HyperParams, seeds,
                 u0=None, v0_all=None):
    """(server, clients, rounds) of R = len(seeds) runs that differ only in
    their seed, replica r on oracles[r] with seeds[r], all at the given
    (default all-zeros) start.

    Eagerly checks the run's invariants before any draw: one seed in
    [0, 2^64) per oracle, a known algorithm, m <= n, gamma_u > 0 for
    scaffold_p (its control update divides by K gamma_u) and oracles that
    `join_replicas` can join. Copies the start
    and checks its shapes: u0 (d_u,), v0_all (n, d_v). Only scaffold_p
    states carry control variates, replica r's from its own oracle and seed.

    `rounds` is lazy: each step runs the next of the T rounds on the joined
    oracles, advancing server and clients in place, and yields the round's
    R traces. Stopping after t steps leaves the state of a T = t run.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not seeds or len(seeds) != len(oracles):
        raise ValueError(f"{len(seeds)} seeds for {len(oracles)} oracles; need one per replica")
    for seed in seeds:
        check_seed(seed)
    oracle = oracles[0]
    if hp.m > oracle.n:
        raise ValueError(f"m={hp.m} exceeds n={oracle.n}")
    if algorithm == SCAFFOLD_P and hp.gamma_u <= 0:
        raise ValueError("scaffold_p needs gamma_u > 0")
    u0 = np.zeros(oracle.d_u) if u0 is None else np.asarray(u0, dtype=np.float64)
    V0 = np.zeros((oracle.n, oracle.d_v)) if v0_all is None else np.asarray(v0_all, dtype=np.float64)
    if u0.shape != (oracle.d_u,) or V0.shape != (oracle.n, oracle.d_v):
        raise ValueError(f"start shapes u0 {u0.shape}, v0_all {V0.shape}; expected "
                         f"({oracle.d_u},), ({oracle.n}, {oracle.d_v})")
    joined = join_replicas(oracles)
    server = ServerState(u=np.tile(u0, (len(seeds), 1)))
    clients = ClientStates(V=np.tile(V0, (len(seeds), 1, 1)))
    if algorithm == SCAFFOLD_P:
        C, c = zip(*(init_control_variates(u0, V0, o, hp.K, seed)
                     for o, seed in zip(oracles, seeds)))
        clients.C, server.c = np.stack(C), np.stack(c)
    # each step zips one (t, ids, rngs) per replica, each from its own streams
    steps = zip(*(round_streams(seed, oracle.n, hp.m, hp.T) for seed in seeds))
    rounds = (run_round(server, clients, joined, hp, ts[0], np.array(ids), rngs, seeds)
              for ts, ids, rngs in (zip(*step) for step in steps))
    return server, clients, rounds


def run_replicas(algorithm: str, oracles, hp: HyperParams, seeds,
                 u0=None, v0_all=None) -> list[TrainingResult]:
    """T rounds of R = len(seeds) runs that differ only in their seed, in
    lock-step: run r on oracles[r] with seeds[r]. Returns one result per
    run, each bitwise the same run alone (`run_training`) except wall_ms,
    which is the shared replica round's time."""
    server, clients, rounds = start_rounds(algorithm, oracles, hp, seeds, u0, v0_all)
    traces = list(rounds)
    return [TrainingResult.of_replica(r, [tr[r] for tr in traces], server, clients)
            for r in range(len(seeds))]


def run_training(algorithm: str, oracle, hp: HyperParams, seed: int,
                 u0=None, v0_all=None) -> TrainingResult:
    """T rounds from the given (default all-zeros) start; deterministic in
    seed. The one-replica case of `run_replicas`."""
    return run_replicas(algorithm, [oracle], hp, [seed], u0, v0_all)[0]


VARIANTS = ("fedavgp_partial", "fedavgp_full", "scaffoldp")


def recommended_step_sizes(variant: str, L: float, K: int, T: int, F0: float,
                           sigma_u: float, sigma_v: float, b: float,
                           m: int, n: int):
    """Theory-prescribed effective step gamma and outer-step lower bounds.

    Returns (gamma, eta_u_min, eta_v_min) with gamma = gamma_u*eta_u =
    gamma_v*eta_v. Variants:

    - fedavgp_partial: gamma = 1 / (32LK + sqrt((3LKT/F0) * (4(n-m)K b^2/(mn)
      + sigma_u^2/m + m sigma_v^2/n))); eta_u >= max(sqrt(m),
      sqrt(b^2 T/(L F0))), eta_v >= sqrt(n/m).
    - fedavgp_full (requires m == n): gamma = 1 / (84LK + sqrt((11LKT/F0) *
      (sigma_u^2/n + sigma_v^2))); eta_u >= max(T, sqrt(n)), eta_v >= 1.
      (The theory's eta_u bound also carries a term in the initial client
      spread; with all clients starting at u^0 it is dominated by these, so
      the returned bound assumes that standard initialization.)
    - scaffoldp: gamma = 1 / (72LK max(n^(2/3)/m, 1) + sqrt((37LKT/F0) *
      (sigma_u^2/m + m sigma_v^2/n))); eta_u >= sqrt(m), eta_v >= sqrt(n/m).

    Raises ValueError for a non-finite L, F0, sigma_u, sigma_v or b, for
    K, T, m or n not an int >= 1 and for any input outside its range.
    """
    named = {"L": L, "F0": F0, "sigma_u": sigma_u, "sigma_v": sigma_v, "b": b}
    bad = [name for name, x in named.items() if not math.isfinite(x)]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite")
    for name, x in (("K", K), ("T", T), ("m", m), ("n", n)):
        _check_int(name, x, 1)
    if L <= 0 or F0 <= 0:
        raise ValueError("L, F0 must be positive")
    if sigma_u < 0 or sigma_v < 0 or b < 0:
        raise ValueError("sigma_u, sigma_v, b must be >= 0")
    if m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if variant == "fedavgp_partial":
        rad = (3.0 * L * K * T / F0) * (
            4.0 * (n - m) * K * b * b / (m * n)
            + sigma_u * sigma_u / m
            + m * sigma_v * sigma_v / n
        )
        gamma = 1.0 / (32.0 * L * K + math.sqrt(rad))
        eta_u = max(math.sqrt(m), math.sqrt(b * b * T / (L * F0)))
        eta_v = math.sqrt(n / m)
    elif variant == "fedavgp_full":
        if m != n:
            raise ValueError("fedavgp_full requires m == n")
        rad = (11.0 * L * K * T / F0) * (sigma_u * sigma_u / n + sigma_v * sigma_v)
        gamma = 1.0 / (84.0 * L * K + math.sqrt(rad))
        eta_u = max(float(T), math.sqrt(n))
        eta_v = 1.0
    elif variant == "scaffoldp":
        fac = max(float(np.cbrt(float(n))) ** 2 / m, 1.0)
        rad = (37.0 * L * K * T / F0) * (
            sigma_u * sigma_u / m + m * sigma_v * sigma_v / n
        )
        gamma = 1.0 / (72.0 * L * K * fac + math.sqrt(rad))
        eta_u = math.sqrt(m)
        eta_v = math.sqrt(n / m)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return gamma, eta_u, eta_v
