"""Closed-loop scheduling on a trained value approximation.

Training runs backward over periods T..2, the tails a decision reads
(none reads Jhat_1). For each period t and each previous mode feasible
at t-1, it samples dispatch states, evaluates the exact one-step target

    y(P) = min_I  Q(f_I(P), I) + kappa(I_prev, I) + Jhat_{t+1}(f_I(P), I)

and fits the basis weights by least squares. Scheduling is then a single
one-step argmin per period against the trained tail values; new initial
states or mid-horizon disturbances need no retraining. A model keeps the
stage table of the scenario it last decided on (training's own, at
first), so a ramp-relaxed period's dispatch QPs are solved at most once
across decisions, and a decision on it may be bounded (`_Priced`).

A decision reads its candidates as one stage row (`oracle.Stages.row`),
gathers their weight rows in a fixed number of numpy calls (the
`ValueModel` docstring tells how the weights are stored) and prices
every tail in one stacked matmul. numpy runs each row of that matmul
through the BLAS dot that np.dot(w, x) calls, so every value, argmin
and trained weight has the bits of a candidate-by-candidate loop;
einsum and a row sum of W * X round differently and are not used.

The basis is quadratic-diagonal: a square and a linear feature
per active dispatch coordinate plus a constant.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .costs import switching_matrix
from .errors import ModelMismatchError, UcdError
from .oracle import TIE_RTOL, Stages, tie_band
from .qp import _check_dispatch, _commitments, _q_floors, int_to_mode, mode_to_int
from .scenario import Scenario, scenario_fingerprint

__all__ = [
    "BasisSpec",
    "TrainConfig",
    "ValueModel",
    "default_basis",
    "train",
    "decide",
    "schedule_step",
    "save_model",
    "load_model",
    "MODEL_FORMAT_VERSION",
]

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BasisSpec:
    """Feature map over the dispatch vector.

    coords lists the dispatch indices (0..N-1 thermal, N dg, N+1 dr) that
    contribute a square and a linear feature; one constant feature closes
    the list.
    """

    coords: tuple[int, ...] = ()

    @property
    def n_features(self) -> int:
        return 2 * len(self.coords) + 1


def default_basis(s: Scenario) -> BasisSpec:
    """Squares and linears of every thermal coordinate, plus dg/dr when
    the scenario ever offers them, plus a constant."""
    coords = list(range(s.n_units))
    if s.has_dg():
        coords.append(s.n_units)
    if s.has_dr():
        coords.append(s.n_units + 1)
    return BasisSpec(coords=tuple(coords))


def basis_matrix(spec: BasisSpec, states) -> np.ndarray:
    """Feature rows of a batch of dispatch states, C-contiguous: the
    squares of the basis coordinates, the coordinates, then 1."""
    P = np.asarray(states, dtype=float)[:, list(spec.coords)]
    k = P.shape[1]
    X = np.empty((len(P), 2 * k + 1))
    np.multiply(P, P, out=X[:, :k])
    X[:, k:2 * k] = P
    X[:, 2 * k] = 1.0
    return X


@dataclass(frozen=True)
class TrainConfig:
    samples: int = 100
    regularization: float = 0.0
    seed: int = 0


@dataclass
class ValueModel:
    """Trained tail-cost approximation Jhat_t(P, I_prev) = w(t,I_prev) . phi(P).

    `train` fills periods 2..T; a file saved while it fitted period 1
    loads with it, unread. The weights of period t are one read-only
    pair in the stage row's form, `weights[t] = (ints, W)`: `ints` holds
    the previous-mode ints trained at t (intp, ascending) and row i of W
    (len(ints) x n_features) the weights of ints[i]. It is the only
    store, and it holds the trained rows alone, never a dense 2^N
    matrix. With ramps relaxed a decision's candidates at t are exactly
    the previous modes trained at t+1, and training keeps the stage
    row's own ints array, so a decision on the trained model's table
    reads W whole; any other candidate list (a ramped row, a loaded
    model's table) finds its rows with one searchsorted into `ints`
    (`_tail_values`). Either way the gather is a fixed number of numpy
    calls, whatever the number of candidates, and hands the matmul the
    fitted floats in candidate order. Those ints are also the only modes
    that a table the model builds for its own scenario solves at t-1
    (`stages_for`). `save_model` writes one "t:ip" key per row, in
    (t, ip) order.
    """

    basis: BasisSpec
    horizon: int
    n_units: int
    weights: dict        # t -> (ints, W), see above
    fingerprint: str
    seed: int
    samples: int
    regularization: float
    diagnostics: dict = field(default_factory=dict)
    # stage table reused by schedule_step, and the bounded decisions'
    # state per period on it (`_Priced`); never saved, never compared
    _stages: Stages | None = field(default=None, init=False, repr=False, compare=False)
    _priced: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def stages_for(self, s: Scenario) -> Stages:
        """The model's stage table, rebuilt when it was made for another
        scenario object. Identity is the key, not the fingerprint: a
        Scenario is frozen, and an object's first fingerprint (a YAML
        dump) costs more than a decision on cached rows. A rebuild reads
        the fingerprint, kept per object (`load_model(path, s)` has
        computed it). When it is the model's, row t < T is solved over
        the previous modes trained at t+1, which training took from row
        t itself, and row T over all 2^N; decisions on the table may be
        bounded (`_Priced`). Every row of another fingerprint's table (a
        forced load) is solved over all 2^N. So a model that holds no
        weights for a feasible mode (a hand-edited file, a feasibility
        flip across BLAS builds) decides without it, where a full row
        would raise ModelMismatchError."""
        if self._stages is None or self._stages.s is not s:
            trained = {}
            if self.fingerprint == scenario_fingerprint(s):
                trained = {t - 1: ints for t, (ints, _) in self.weights.items() if t > 1}
                trained[s.horizon] = np.arange(1 << s.n_units, dtype=np.intp)
            self._stages = Stages(s, trained)
            self._priced = {}
        return self._stages

    def __eq__(self, other):
        """Field by field, the weights period by period; the stage table
        is a cache and takes no part."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(self) if f.compare and f.name != "weights")
                and self.weights.keys() == other.weights.keys()
                and all(np.array_equal(a, b) for t, pair in self.weights.items()
                        for a, b in zip(pair, other.weights[t])))


def _period(ints, W):
    """A period's weights as `ValueModel` keeps them: both read-only."""
    ints.flags.writeable = W.flags.writeable = False
    return ints, W


def _sample_states(s: Scenario, t: int, i_prev_bits, rng, count):
    """Dispatch states distributed like the reachable set entering t:
    committed units uniform over their capacity, others exactly 0, dg/dr
    uniform over the previous period's caps."""
    per = s.period(max(t - 1, 1))
    states = np.zeros((count, s.n_units + 2))
    for n, u in enumerate(s.units):
        if i_prev_bits[n]:
            states[:, n] = rng.uniform(u.p_min, u.p_max, size=count)
    if per.dg_max > 0.0:
        states[:, s.n_units] = rng.uniform(0.0, per.dg_max, size=count)
    if per.dr_max > 0.0:
        states[:, s.n_units + 1] = rng.uniform(0.0, per.dr_max, size=count)
    return states


def train(s: Scenario, config: TrainConfig | None = None) -> ValueModel:
    """Fit the value approximation backward over the horizon.

    Deterministic: the sample streams are seeded per (seed, t, I_prev), so
    identical scenario and config reproduce the model bit for bit.
    """
    cfg = config or TrainConfig()
    # the types `load_model` reads back, so every model trained can be reloaded
    for name, kind, what in (("samples", int, "an int"), ("seed", int, "an int"),
                             ("regularization", (int, float), "a number")):
        if not _is(getattr(cfg, name), kind):
            raise UcdError(f"{name} must be {what}, got {getattr(cfg, name)!r}")
    if cfg.samples < 1:
        raise UcdError("training needs at least one sample per state")
    if cfg.seed < 0:
        raise UcdError(f"seed must be >= 0, got {cfg.seed!r}")
    if not 0.0 <= cfg.regularization < np.inf:
        raise UcdError(f"regularization must be finite and >= 0, got {cfg.regularization!r}")
    basis = default_basis(s)
    nf = basis.n_features
    # filled backward, so the targets at t read the tails fitted at t+1
    model = ValueModel(
        basis=basis, horizon=s.horizon, n_units=s.n_units, weights={},
        fingerprint=scenario_fingerprint(s), seed=cfg.seed, samples=cfg.samples,
        regularization=cfg.regularization,
    )

    # ramp-relaxed candidates per period; also the existence check
    stages = Stages(s)
    for t in range(1, s.horizon + 1):
        if not len(stages.row(t)[0]):
            raise UcdError(f"no feasible commitment at period t={t}; cannot train")
    # targets read rows of the full switching matrix, which is dropped
    # after training rather than kept with the scenario object's shared
    # rows (`Stages.kappa_row`): all 2^N rows take 8 * 4^N bytes, 8 MB
    # at N = 10
    K = switching_matrix(s)

    discarded = {}
    rank_deficient = []
    for t in range(s.horizon, 1, -1):      # no decision reads Jhat_1
        prev = stages.row(t - 1)[0]         # t-1's feasible modes (see ValueModel)
        W = np.empty((len(prev), nf))
        # without ramp coupling both the dispatch and the tail term are
        # per-(t, I) constants, so every previous mode's target is one
        # minimum of Q + Jhat_{t+1} + kappa over the feasible modes, the
        # only ones that can attain it
        if not s.ramp_enforced:
            ints, q, dispatches = stages.row(t)
            targets = (q + _tail_values(model, t + 1, ints, dispatches) + K[:, ints]).min(1)
        for i, ip in enumerate(prev.tolist()):
            ip_bits = int_to_mode(ip, s.n_units)
            rng = np.random.default_rng((cfg.seed, t, ip))
            states = _sample_states(s, t, ip_bits, rng, cfg.samples)
            ys = np.empty(cfg.samples)
            keep = np.ones(cfg.samples, dtype=bool)
            if not s.ramp_enforced:
                ys[:] = targets[ip]
            else:
                for k in range(cfg.samples):
                    values = _step(model, t, K[ip], stages.row(t, states[k]))
                    if len(values):
                        ys[k] = values.min()
                    else:
                        keep[k] = False
                if not keep.all():
                    dropped = int((~keep).sum())
                    discarded[(t, ip)] = dropped
                    log.warning("discarded %d/%d samples with empty feasible set "
                                "at t=%d, I_prev=%s", dropped, cfg.samples, t,
                                "".join(map(str, ip_bits)))
            if not keep.any():
                raise UcdError(
                    f"every sampled state at t={t}, "
                    f"I_prev={''.join(map(str, ip_bits))} was infeasible"
                )
            X = basis_matrix(basis, states[keep])
            y = ys[keep]
            if cfg.regularization > 0.0:
                A = X.T @ X + cfg.regularization * np.eye(nf)
                w = np.linalg.solve(A, X.T @ y)
                rank = nf
            else:
                w, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
            if rank < nf:
                rank_deficient.append((t, ip))
                log.info("rank-deficient fit at t=%d, I_prev=%s (rank %d of %d); "
                         "minimum-norm solution used", t, "".join(map(str, ip_bits)),
                         rank, nf)
            W[i] = w
        model.weights[t] = _period(prev, W)

    model.diagnostics = {
        "discarded": {f"{t}:{ip}": c for (t, ip), c in discarded.items()},
        "rank_deficient": [f"{t}:{ip}" for t, ip in rank_deficient],
    }
    model._stages = stages
    return model


_NO_WEIGHTS = (np.empty(0, dtype=np.intp), None)


def _weight_rows(model, t, ints, strict=True):
    """The weight rows of Jhat_t for the previous-mode ints `ints`: W
    itself or one searchsorted gather (see ValueModel). The first int
    without a row raises ModelMismatchError or, if not strict, every
    such int gets a row of nan."""
    known, W = model.weights.get(t, _NO_WEIGHTS)
    if ints is not known:
        at = known.searchsorted(ints)
        if not len(known) or known.take(at, mode="clip").tolist() != ints.tolist():
            held = np.isin(ints, known)
            if not strict:
                W = np.zeros((len(ints), model.basis.n_features)) if W is None else W
                return np.where(held[:, None], W.take(at, 0, mode="clip"), np.nan)
            absent = int_to_mode(ints[~held].item(0), model.n_units)
            raise ModelMismatchError(f"model holds no weights for t={t}, "
                                     f"I_prev={''.join(map(str, absent))}")
        W = W.take(at, axis=0)
    return W


def _dots(W, X):
    """Row i of W dotted with row i of X, for every i in one stacked
    matmul with np.dot's bits (see the module docstring)."""
    return (W[:, None, :] @ X[:, :, None])[:, 0, 0]


def _tail_values(model, t, ints, dispatches):
    """Jhat_t at each dispatch row, entering t from the mode int of the
    same index; 0 beyond the horizon."""
    if t > model.horizon or not len(ints):
        return np.zeros(len(ints))
    return _dots(_weight_rows(model, t, ints), basis_matrix(model.basis, dispatches))


def _tail_floors(basis, W, on, bounds):
    """(floor, size) per row i: a floor on W[i] . phi(x) over the box
    on[i] * bounds (`qp._q_floors`), |bounds[0]| <= bounds[1], and a bound
    on its terms' magnitudes there. A basis coordinate (in any order, any
    repeated) adds w2 x^2 + w1 x, least at the clipped stationary point if
    w2 > 0, else at an end (concave); rounding it costs second order only."""
    c = list(basis.coords)
    k = len(c)
    w2, w1 = W[:, :k], W[:, k:2 * k]
    at = np.zeros((3, len(W), k))
    lo, hi, x = at                      # the ends and the clipped point
    if c != list(range(bounds.shape[1])):
        on, bounds = on[:, c], bounds[:, c]
    np.multiply(on, bounds[:, None], out=at[:2])
    np.divide(w1, -2.0 * w2, out=x, where=w2 > 0.0)
    np.minimum(np.maximum(x, lo, out=x), hi, out=x)
    top = bounds[1].tolist()
    return (((w2 * at + w1) * at).min(0).sum(1) + W[:, 2 * k],
            np.dot(np.abs(W), [v * v for v in top] + top + [1.0]))


def _margin(n_units, size):
    """The rounding margin of a floor whose terms' magnitudes sum to
    `size`, on a fleet of n_units (`_Priced` argues it)."""
    return 4 * (3 * n_units + 20) * 2.0 ** -53 * size


def _floors(model, s, t, ints, W, limits=None):
    """Floors on Q + Jhat_{t+1} less their margins (`_Priced`) for the
    mode ints `ints` at t, under ramp `limits`; W their weight rows."""
    on, bounds, floor, size = _q_floors(s, t, ints, limits)
    size += sum(max(u.c_bank, u.c_fix + u.c_shut) for u in s.units)     # kappa's
    if W is not None:
        tail, tail_size = _tail_floors(model.basis, W, on, bounds)
        floor, size = floor + tail, tail_size + size
    return floor - _margin(s.n_units, size)


def _bounded(keys, values, price):
    """A bounded decision's loop (`_Priced`): values[i] = price(i), inf if
    infeasible, for the least key while it is in the least value's band."""
    best = values.min(initial=np.inf)
    while True:
        i = int(keys.argmin())
        key = keys.item(i)
        if key == np.inf or key > best + TIE_RTOL * max(1.0, abs(best)):
            return
        keys[i] = np.inf
        values[i] = price(i)
        best = min(best, values.item(i))


class _Priced:
    """A bounded decision's state at period t of a model's own table
    (`ValueModel.stages_for`), ramps relaxed and row t unbuilt
    (`oracle.Stages.pending`).

    A bounded decision takes the tie-band argmin of (Q + kappa) +
    Jhat_{t+1} without solving every candidate. It solves them in the
    order of their floors, Q's (`qp._q_floors`) + kappa + Jhat_{t+1}'s
    least value over the mode's box (`_tail_floors`) - a margin, while
    the floor is at most best + TIE_RTOL * max(1, |best|), best the least
    value so far (`_bounded`). An unsolved candidate's value is at least
    its floor, above that band and so the final one, as x + band(x) never
    decreases (`oracle._Bound.cuts`): the argmin and its dispatch are a
    full row's, to the bit. Here the candidates are the modes row t is
    to be solved over, solved through the table (`Stages.mode`) so that
    a full-row reader builds a full row's bytes; the floors less kappa
    (`low`) and each solved Q (inf if infeasible) and tail are kept for
    the next decision at t. With ramps enforced (`_ramped`) they are the
    relaxed twins (`Stages.twins`): one that meets its ramp rows is
    priced exactly, a miss floored over its box cut to the ramp windows
    and solved under ramps. Values round as `_step` rounds them.

    The margin. The floors bound a certified dispatch's value in real
    numbers (`qp._q_floors` widens by a KKT certificate's slack), less
    rounding: each float on the way (Q, the tail's dot, (Q + kappa) +
    tail; either floor, their sum less the margin, plus kappa) sums at
    most 3N + 20 rounded terms, so it is within (3N + 20) u (1 + o(1))
    times their magnitudes' sum of its real value, u = 2^-53. size bounds
    every such sum (`qp._q_floors`', `_tail_floors`' per row, and the
    largest switching charge); three such errors (the value's, the
    floor's, the key's) separate a floor from its value, which the
    margin 4 (3N + 20) u size (`_margin`) covers: derived, not fitted."""

    __slots__ = ("ints", "W", "low", "q", "tail")

    def __init__(self, model, s, t, ints):
        self.ints = ints
        self.W = _weight_rows(model, t + 1, ints) if t < model.horizon else None
        self.low = _floors(model, s, t, ints, self.W)
        self.q, self.tail = np.full(len(ints), np.inf), np.zeros(len(ints))

    def step(self, model, stages, t, kappa):
        """(ints, values, None) of the solved feasible candidates, from the
        previous mode of switching row `kappa`, after solving what the
        floors admit; their dispatches are the table's (`Stages.mode`)."""
        k = kappa[self.ints]
        values = (self.q + k) + self.tail

        def price(i):
            self.low[i] = np.inf            # solved, never priced again
            solved = stages.mode(t, self.ints.item(i))
            if solved is None:
                return np.inf
            self.q[i], dispatch = solved
            if self.W is not None:
                self.tail[i] = _dots(self.W[i:i + 1], basis_matrix(model.basis, dispatch[None]))[0]
            return (self.q[i] + k[i]) + self.tail[i]

        _bounded(self.low + k, values, price)
        keep = self.q < np.inf
        return self.ints[keep], values[keep], None


def _ramped(model, stages, t, kappa, row, limits, met):
    """(ints, values, dispatches) of a bounded decision with ramps enforced
    (`_Priced`). A twin without weights has the floor -inf: it is solved
    first and, if feasible, raises ModelMismatchError as a full row does."""
    ints, q, dispatches = row
    k = kappa[ints]
    miss = ~np.array(met)
    W = _weight_rows(model, t + 1, ints, strict=False) if t < model.horizon else None
    values = q + k + (0.0 if W is None else _dots(W, basis_matrix(model.basis, dispatches)))
    keys = np.full(len(ints), np.inf)
    keys[miss] = k[miss] + _floors(model, stages.s, t, ints[miss],
                                   None if W is None else W[miss], limits)
    keys[np.isnan(values)] = -np.inf        # a twin without weights
    values[miss | (keys == -np.inf)] = np.inf
    out = dispatches.copy()

    def price(i):
        solved = (q.item(i), dispatches[i]) if met[i] else stages.mode(t, ints.item(i), limits)
        if solved is None:
            return np.inf
        out[i] = solved[1]          # `_tail_values` raises where absent
        return (solved[0] + k[i]) + _tail_values(model, t + 1, ints[i:i + 1], out[i:i + 1])[0]

    _bounded(keys, values, price)
    keep = values < np.inf
    return ints[keep], values[keep], out[keep]


def _step(model, t, kappa, row):
    """One Bellman step into period t: the values Q + kappa + Jhat_{t+1}
    of stage row `row` (`Stages.row`), kappa the switching row of the
    previous mode."""
    ints, q, dispatches = row
    return q + kappa[ints] + _tail_values(model, t + 1, ints, dispatches)


def decide(model: ValueModel, stages: Stages, t: int, i_prev, p_prev):
    """The (mode, dispatch) minimizing the one-step value; ties break to
    the smallest mode as a binary integer, matching the oracles. A t
    that is not a period raises ScenarioError (`Scenario.period`), even
    one equal to a period whose row the table holds, such as 2.0, and a
    state from which no mode at t is feasible UcdError. On the model's
    own table a decision may be bounded (`_Priced`), with the same
    answer."""
    s = stages.s
    s.period(t)
    n = s.n_units
    kappa = stages.kappa_row(mode_to_int(i_prev, n))
    own = stages is model._stages
    ints = stages.pending(t) if own else None
    if ints is not None:
        if t not in model._priced:
            model._priced[t] = _Priced(model, s, t, ints)
        ints, values, dispatches = model._priced[t].step(model, stages, t, kappa)
    else:
        row, limits, met = stages.twins(t, p_prev)
        if own and met is not None:
            ints, values, dispatches = _ramped(model, stages, t, kappa, row, limits, met)
        else:
            row = ints, _, dispatches = stages.merge(t, row, limits, met)
            values = _step(model, t, kappa, row)
    if not len(ints):
        raise UcdError(f"no mode is feasible at t={t} from the state entering it "
                       f"(previous mode {''.join(str(int(b)) for b in i_prev)})")
    k = tie_band(values)[1]
    v = ints.item(k)
    return _commitments(n)[v], stages.mode(t, v)[1] if dispatches is None else dispatches[k]


def schedule_step(model: ValueModel, s: Scenario, t: int, i_prev, p_prev):
    """One closed-loop decision: `decide` on the model's stage table
    (`ValueModel.stages_for`). The dispatch is a copy, so a caller may
    change it without touching the table. A model of another unit count
    or horizon than s raises ModelMismatchError (`_check_shape`), a
    previous dispatch other than N or N+2 finite entries >= 0 ValueError,
    and a t that is not a period ScenarioError (`decide`).
    """
    _check_shape(model.n_units, model.horizon, s)
    _check_dispatch(p_prev, s.n_units)
    mode, dispatch = decide(model, model.stages_for(s), t, i_prev, p_prev)
    return mode, dispatch.copy()


def _check_shape(n_units, horizon, s):
    """Raise ModelMismatchError unless a model of n_units units over
    `horizon` periods fits scenario s; on another shape it would price a
    tail it holds no weights for at 0."""
    if (n_units, horizon) != (s.n_units, s.horizon):
        raise ModelMismatchError(f"model has {n_units} units over {horizon} periods; "
                                 f"the scenario has {s.n_units} over {s.horizon}")


def save_model(model: ValueModel, path) -> None:
    """Self-describing JSON document; floats survive bit for bit."""
    doc = {
        "format": "ucdkit-value-model",
        "format_version": MODEL_FORMAT_VERSION,
        "fingerprint": model.fingerprint,
        "horizon": model.horizon,
        "n_units": model.n_units,
        "seed": model.seed,
        "samples": model.samples,
        "regularization": model.regularization,
        "basis": {"family": "quad", "coords": list(model.basis.coords)},
        "weights": {
            f"{t}:{ip}": w
            for t, (ints, W) in sorted(model.weights.items())
            for ip, w in zip(ints.tolist(), W.tolist())
        },
        "diagnostics": model.diagnostics,
    }
    _write_json(doc, path, "model document")


def _write_json(doc, path, what):
    """doc as JSON at path, indent 1 and a final newline; UcdError if unwritable."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise UcdError(f"cannot write {what}: {exc}") from exc


def _is(value, kind):
    """isinstance(value, kind), where a boolean is never a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _field(doc, key, kind):
    """doc[key] when it holds a `kind` (`_is`)."""
    value = doc.get(key)
    if not _is(value, kind):
        raise ModelMismatchError(f"model field {key!r} is missing or ill-typed")
    return value


def load_model(path, scenario: Scenario | None = None, force: bool = False) -> ValueModel:
    """Read a stored model.

    When a scenario is supplied, its fingerprint must match the one the
    model was trained on; pass force=True to override deliberately. Its
    unit count and horizon must match even then (`_check_shape`). A
    document that is not a well-formed model raises ModelMismatchError:
    among others, a unit count or horizon below 1, a weight key outside
    periods 1..horizon and modes 0..2^N-1, and diagnostics that are not
    an object (a missing one loads as {}).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ModelMismatchError(f"cannot read model document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "ucdkit-value-model":
        raise ModelMismatchError("not a value model document")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelMismatchError(
            f"unsupported model format version {doc.get('format_version')!r}"
        )
    fingerprint = _field(doc, "fingerprint", str)
    if scenario is not None and not force:
        fp = scenario_fingerprint(scenario)
        if fp != fingerprint:
            raise ModelMismatchError(
                "model was trained on a different scenario (fingerprint "
                f"{fingerprint[:12]}... vs {fp[:12]}...); "
                "pass force to use it anyway"
            )
    n_units = _field(doc, "n_units", int)
    horizon = _field(doc, "horizon", int)
    if n_units < 1 or horizon < 1:
        raise ModelMismatchError(f"model has {n_units} units over {horizon} periods; "
                                 "both must be at least 1")
    if scenario is not None:
        _check_shape(n_units, horizon, scenario)
    spec = _field(doc, "basis", dict)
    coords = _field(spec, "coords", list)
    if (_field(spec, "family", str) != "quad"
            or not all(type(c) is int and 0 <= c < n_units + 2 for c in coords)):
        raise ModelMismatchError(f"unsupported basis {spec!r}")
    basis = BasisSpec(coords=tuple(coords))
    periods = {}        # t -> {ip: floats}; a later key for the same row wins
    bits = min(n_units, 63)         # no 2^N built; a mode int is an intp
    for key, vals in _field(doc, "weights", dict).items():
        t_ip = re.fullmatch(r"([0-9]{1,4300}):([0-9]{1,4300})", key)     # int()'s digit limit
        if (t_ip is None or not isinstance(vals, list) or len(vals) != basis.n_features
                or not all(type(v) is float and math.isfinite(v) for v in vals)):
            raise ModelMismatchError(f"weights {key!r}: expected a t:ip key and "
                                     f"{basis.n_features} finite floats")
        t, ip = int(t_ip[1]), int(t_ip[2])
        if not (1 <= t <= horizon and ip.bit_length() <= bits):
            raise ModelMismatchError(f"weights {key!r}: outside periods 1..{horizon} and "
                                     f"modes 0..2^{bits}-1")
        periods.setdefault(t, {})[ip] = vals
    weights = {}
    for t, rows in periods.items():
        ips = sorted(rows)
        weights[t] = _period(np.array(ips, dtype=np.intp), np.array([rows[ip] for ip in ips]))
    return ValueModel(
        basis=basis, horizon=horizon, n_units=n_units,
        weights=weights, fingerprint=fingerprint, seed=_field(doc, "seed", int),
        samples=_field(doc, "samples", int),
        regularization=float(_field(doc, "regularization", (int, float))),
        diagnostics=_field(doc, "diagnostics", dict) if "diagnostics" in doc else {},
    )
