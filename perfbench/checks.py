"""Output checks for the benchmark workloads.

Every check recomputes what it compares against: closed-form quadratic
values from the centers, a regularized logistic loss on the benchmark's own
partition of the corpus it wrote, floors from the trace files, or a
property the method must have. None compares against a stored copy of an
earlier run. Each check raises CheckError with a message naming what
differed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRACE_HEADER = "t,f_value,grad_norm_u,grad_norm_v,grad_norm_v_hat,sampled,wall_ms"
SUMMARY_HEADER = "axis,value,seed,floor,rounds_to_threshold,trace_file"


class CheckError(Exception):
    pass


@dataclass(frozen=True)
class TraceRow:
    t: int
    f_value: float
    grad_norm_u: float
    grad_norm_v: float
    grad_norm_v_hat: float
    sampled: tuple[int, ...]
    wall_ms: float

    @property
    def measure(self) -> float:
        return self.grad_norm_u + self.grad_norm_v_hat


def parse_trace(text: str) -> list[TraceRow]:
    """Rows of a trace CSV; floats are written with 17 digits, so exact."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != TRACE_HEADER:
        raise CheckError(f"trace header is {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 7:
            raise CheckError(f"trace row {line!r} has {len(f)} fields")
        rows.append(TraceRow(
            t=int(f[0]), f_value=float(f[1]), grad_norm_u=float(f[2]),
            grad_norm_v=float(f[3]), grad_norm_v_hat=float(f[4]),
            sampled=tuple(int(i) for i in f[5].split(";")), wall_ms=float(f[6]),
        ))
    return rows


def strip_wall(text: str) -> str:
    """Trace text without its wall_ms column, the one column that may vary."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.rstrip("\n").split("\n"))


def check_close(name: str, got: float, want: float, rtol: float) -> None:
    if not abs(got - want) <= rtol * abs(want):
        raise CheckError(f"{name} = {got!r}, reference {want!r} (rtol {rtol:g})")


def check_rounds(rows: list[TraceRow], T: int, m: int, n: int) -> None:
    """T rounds numbered 0..T-1, each sampling m distinct ascending ids in 1..n."""
    if len(rows) != T:
        raise CheckError(f"trace has {len(rows)} rows, expected T={T}")
    for t, r in enumerate(rows):
        if r.t != t:
            raise CheckError(f"row {t} is numbered {r.t}")
        s = r.sampled
        if len(s) != m:
            raise CheckError(f"round {t} sampled {len(s)} clients, expected m={m}")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise CheckError(f"round {t} sampled {s}: not distinct and ascending")
        if s[0] < 1 or s[-1] > n:
            raise CheckError(f"round {t} sampled {s}: ids outside 1..{n}")


def check_measure_decreases(rows: list[TraceRow]) -> None:
    """grad_norm_u + grad_norm_v_hat ends below where it started."""
    if not rows[-1].measure < rows[0].measure:
        raise CheckError(
            f"measure went from {rows[0].measure!r} to {rows[-1].measure!r}"
        )


def _check_final(last: TraceRow, ref: tuple[float, float, float, float], rtol: float) -> None:
    f, g_u, g_v, g_v_hat = ref
    check_close("f_value", last.f_value, f, rtol)
    check_close("grad_norm_u", last.grad_norm_u, g_u, rtol)
    check_close("grad_norm_v", last.grad_norm_v, g_v, rtol)
    check_close("grad_norm_v_hat", last.grad_norm_v_hat, g_v_hat, rtol)


# ------------------------------------------------------------------ quadratic


def quadratic_reference(centers_u, centers_v, u, V, m: int):
    """(f, G_u, G_v, G_v_hat) of f_i = 0.5|u-a_i|^2 + 0.5|v_i-b_i|^2 at (u, V)."""
    du = u[None, :] - centers_u
    dv = np.asarray(V) - centers_v
    n = centers_u.shape[0]
    f = float(np.mean(0.5 * np.einsum("ij,ij->i", du, du) + 0.5 * np.einsum("ij,ij->i", dv, dv)))
    gbar = du.mean(axis=0)
    g_v = float(np.einsum("ij,ij->i", dv, dv).mean())
    return f, float(gbar @ gbar), g_v, (m / n) * g_v


def check_quadratic_final(rows, centers_u, centers_v, u, V, m: int, rtol: float = 1e-12) -> None:
    """Last round's metrics equal the closed form at the returned (u, v_i),
    and f_value is at least inf f = b^2/2."""
    _check_final(rows[-1], quadratic_reference(centers_u, centers_v, u, V, m), rtol)
    centered = centers_u - centers_u.mean(axis=0)
    b2 = float(np.einsum("ij,ij->i", centered, centered).mean())
    if not rows[-1].f_value >= 0.5 * b2:
        raise CheckError(f"f_value {rows[-1].f_value!r} below inf f = b^2/2 = {0.5 * b2!r}")


# ------------------------------------------------------------------- logistic


@dataclass(frozen=True)
class Shard:
    A: np.ndarray
    B: np.ndarray
    y: np.ndarray


def label_sorted_shards(images, labels, n: int, cap: int, d_u: int) -> list[Shard]:
    """Parity labels (+1 even, -1 odd), stable sort by digit, n contiguous
    blocks (remainder rows to the lowest blocks), first `cap` rows of each,
    pixels scaled to [0, 1] and split after the first d_u."""
    order = np.argsort(labels, kind="stable")
    base, rem = divmod(len(order), n)
    shards, start = [], 0
    for i in range(n):
        size = base + (1 if i < rem else 0)
        rows = order[start:start + size][:cap]
        start += size
        x = images.reshape(len(labels), -1)[rows].astype(np.float64) / 255.0
        y = np.where(labels[rows] % 2 == 0, 1.0, -1.0)
        shards.append(Shard(A=x[:, :d_u], B=x[:, d_u:], y=y))
    return shards


def logistic_reference(shards: list[Shard], rho: float, u, V, m: int):
    """(f, G_u, G_v, G_v_hat) of the per-shard mean of log(1+exp(-y(a.u+b.v)))
    plus rho*(|u|^2/(1+|u|^2) + |v|^2/(1+|v|^2))."""
    su = float(u @ u)
    vals, gus, gv_sq = [], [], []
    for s, v in zip(shards, V):
        sv = float(v @ v)
        z = s.y * (s.A @ u + s.B @ v)
        loss = np.logaddexp(0.0, -z)
        # d/dz log(1+exp(-z)) = -exp(-log(1+exp(z)))
        w = -s.y * np.exp(-np.logaddexp(0.0, z)) / len(s.y)
        vals.append(float(loss.mean()) + rho * (su / (1.0 + su) + sv / (1.0 + sv)))
        gus.append(s.A.T @ w + rho * 2.0 * u / (1.0 + su) ** 2)
        g_v = s.B.T @ w + rho * 2.0 * v / (1.0 + sv) ** 2
        gv_sq.append(float(g_v @ g_v))
    gbar = np.mean(gus, axis=0)
    n = len(shards)
    g_v = float(np.mean(gv_sq))
    return float(np.mean(vals)), float(gbar @ gbar), g_v, (m / n) * g_v


def check_logistic_final(rows, shards, rho: float, u, V, m: int, rtol: float = 1e-10) -> None:
    """Last round's metrics equal the reference loss at the returned (u, v_i),
    and f_value is below log 2, its exact value at the all-zero start."""
    _check_final(rows[-1], logistic_reference(shards, rho, u, V, m), rtol)
    if not rows[-1].f_value < math.log(2.0):
        raise CheckError(f"f_value {rows[-1].f_value!r} not below log 2")


# ---------------------------------------------------------- control variates


def check_control_mean(c, C, tol: float = 1e-12) -> None:
    """Scaffold-P keeps the server control c equal to the mean of the c_i."""
    gap = float(np.linalg.norm(np.asarray(c) - np.mean(np.asarray(C), axis=0)))
    if not gap <= tol:
        raise CheckError(f"||c - mean_i c_i|| = {gap!r} exceeds {tol:g}")


# ---------------------------------------------------------------------- sweep


def floor_window(T: int) -> int:
    return min(100, max(1, T // 5))


def floor_from_rows(rows: list[TraceRow]) -> float:
    """Mean of grad_norm_u + grad_norm_v_hat over the final window."""
    return float(np.mean([r.measure for r in rows[-floor_window(len(rows)):]]))


def parse_summary(text: str) -> list[list[str]]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != SUMMARY_HEADER:
        raise CheckError(f"summary header is {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


def check_summary(text: str, axis: str, values, seeds, cell_rows) -> None:
    """One row per (value, seed) cell in grid order, then one mean row per
    value. Each cell floor equals the final-window mean recomputed from its
    trace rows, and each mean row equals the mean of its cells' floors,
    both exactly. `cell_rows` maps each cell's trace_file to its rows."""
    rows = parse_summary(text)
    cells = [(v, s) for v in values for s in seeds]
    if len(rows) != len(cells) + len(values):
        raise CheckError(
            f"summary has {len(rows)} rows, expected {len(cells)} cells + {len(values)} means"
        )
    floors: dict = {}
    for (value, seed), row in zip(cells, rows):
        if row[:3] != [axis, repr(value), str(seed)]:
            raise CheckError(f"summary row {row[:3]} where cell {(axis, value, seed)} belongs")
        trace_rows = cell_rows.get(row[5])
        if trace_rows is None:
            raise CheckError(f"summary names trace file {row[5]!r}, which was not checked")
        fl = floor_from_rows(trace_rows)
        if float(row[3]) != fl:
            raise CheckError(f"cell {(value, seed)} floor {row[3]} != recomputed {fl!r}")
        floors.setdefault(value, []).append(fl)
    for value, row in zip(values, rows[len(cells):]):
        if row[:3] != [axis, repr(value), "mean"]:
            raise CheckError(f"summary row {row[:3]} where the mean of {value!r} belongs")
        want = float(np.mean(floors[value]))
        if float(row[3]) != want:
            raise CheckError(f"mean floor of {value!r} is {row[3]}, recomputed {want!r}")


def check_same_trace(text: str, rerun_text: str) -> None:
    """A cell re-run alone reproduces the sweep's trace except wall_ms."""
    if strip_wall(text) != strip_wall(rerun_text):
        raise CheckError("re-run cell trace differs from the sweep's trace")
