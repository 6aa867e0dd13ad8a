"""Closed-loop scheduling on a trained value approximation.

Training runs backward over the horizon. For each period t and each
candidate previous mode, it samples dispatch states, evaluates the exact
one-step target

    y(P) = min_I  Q(f_I(P), I) + kappa(I_prev, I) + Jhat_{t+1}(f_I(P), I)

and fits the basis weights by least squares. Scheduling is then a single
one-step argmin per period against the trained tail values; new initial
states or mid-horizon disturbances need no retraining. A model keeps the
stage table of the scenario it last decided on (training's own, at
first), so a ramp-relaxed period's dispatch QPs are solved at most once
across decisions.

A decision reads its candidates as one stage row (`oracle.Stages.row`),
gathers their weights once and prices every tail in one stacked
matmul. numpy runs each row of that matmul through the BLAS dot that
np.dot(w, x) calls, so every value, argmin and trained weight has the
bits of a candidate-by-candidate loop; einsum and a row sum of W * X
round differently and are not used.

The basis is quadratic-diagonal: a square and a linear feature
per active dispatch coordinate plus a constant.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .costs import switching_matrix
from .errors import ModelMismatchError, UcdError
from .oracle import Stages, tie_band
from .qp import _check_dispatch, _commitments, int_to_mode, mode_to_int
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
    """Trained tail-cost approximation Jhat_t(P, I_prev) = w(t,I_prev) . phi(P)."""

    basis: BasisSpec
    horizon: int
    n_units: int
    weights: dict        # (t, mode int) -> np.ndarray of length n_features
    fingerprint: str
    seed: int
    samples: int
    regularization: float
    diagnostics: dict = field(default_factory=dict)
    # stage table reused by schedule_step; never saved, never compared
    _stages: Stages | None = field(default=None, init=False, repr=False, compare=False)

    def stages_for(self, s: Scenario) -> Stages:
        """The model's stage table, rebuilt when it was made for another
        scenario object. Identity is the key, not the fingerprint: a
        Scenario is frozen, and an object's first fingerprint (a YAML
        dump, kept per object after that) costs more than a decision on
        cached rows."""
        if self._stages is None or self._stages.s is not s:
            self._stages = Stages(s)
        return self._stages

    def __eq__(self, other):
        """Field by field, the weight arrays key by key; the stage table
        is a cache and takes no part."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(self) if f.compare and f.name != "weights")
                and self.weights.keys() == other.weights.keys()
                and all(np.array_equal(w, other.weights[k])
                        for k, w in self.weights.items()))


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
    for t in range(s.horizon, 0, -1):
        # previous modes: anything at t=1 (callers may start from
        # arbitrary states), the feasible modes of t-1 afterwards
        prev_modes = range(1 << s.n_units) if t == 1 else stages.row(t - 1)[0].tolist()
        # without ramp coupling both the dispatch and the tail term are
        # per-(t, I) constants, so every previous mode's target is one
        # minimum of Q + Jhat_{t+1} + kappa over the feasible modes, the
        # only ones that can attain it
        if not s.ramp_enforced:
            ints, q, dispatches = stages.row(t)
            targets = (q + _tail_values(model, t + 1, ints, dispatches) + K[:, ints]).min(1)
        for ip in prev_modes:
            ip_bits = int_to_mode(ip, s.n_units)
            rng = np.random.default_rng((cfg.seed, t, ip))
            states = _sample_states(s, t, ip_bits, rng, cfg.samples)
            ys = np.empty(cfg.samples)
            keep = np.ones(cfg.samples, dtype=bool)
            if not s.ramp_enforced:
                ys[:] = targets[ip]
            else:
                for k in range(cfg.samples):
                    _, values = _step(model, stages, t, K[ip], states[k])
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
            model.weights[(t, ip)] = w

    model.diagnostics = {
        "discarded": {f"{t}:{ip}": c for (t, ip), c in discarded.items()},
        "rank_deficient": [f"{t}:{ip}" for t, ip in rank_deficient],
    }
    model._stages = stages
    return model


def _tail_values(model, t, ints, dispatches):
    """Jhat_t at each dispatch row, entering t from the mode int of the
    same index; 0 beyond the horizon. One stacked matmul with np.dot's
    bits (see the module docstring)."""
    if t > model.horizon or not len(ints):
        return np.zeros(len(ints))
    try:
        W = np.array([model.weights[t, mi] for mi in ints.tolist()])
    except KeyError as exc:
        raise ModelMismatchError(
            f"model holds no weights for t={t}, "
            f"I_prev={''.join(map(str, int_to_mode(exc.args[0][1], model.n_units)))}"
        ) from None
    X = basis_matrix(model.basis, dispatches)
    return (W[:, None, :] @ X[:, :, None])[:, 0, 0]


def _step(model, stages, t, kappa, p_prev):
    """One Bellman step from state (i_prev, p_prev) entering period t,
    given `kappa`, row i_prev of the switching matrix: the stage row
    (`Stages.row`) and its values Q + kappa + Jhat_{t+1}."""
    row = ints, q, dispatches = stages.row(t, p_prev)
    return row, q + kappa[ints] + _tail_values(model, t + 1, ints, dispatches)


def decide(model: ValueModel, stages: Stages, t: int, i_prev, p_prev):
    """The (mode, dispatch) minimizing the one-step value; ties break to
    the smallest mode as a binary integer, matching the oracles. A
    state from which no mode at t is feasible raises UcdError."""
    n = stages.s.n_units
    kappa = stages.kappa_row(mode_to_int(i_prev, n))
    (ints, _, dispatches), values = _step(model, stages, t, kappa, p_prev)
    if not len(ints):
        raise UcdError(f"no mode is feasible at t={t} from the state entering it "
                       f"(previous mode {''.join(str(int(b)) for b in i_prev)})")
    k = tie_band(values)[1]
    return _commitments(n)[ints.item(k)], dispatches[k]


def schedule_step(model: ValueModel, s: Scenario, t: int, i_prev, p_prev):
    """One closed-loop decision: `decide` on the model's stage table
    (`ValueModel.stages_for`). The dispatch is a copy, so a caller may
    change it without touching the table. A model of another unit count
    or horizon than s raises ModelMismatchError (`_check_shape`), a
    previous dispatch other than N or N+2 finite entries >= 0 ValueError,
    and a t that is not a period ScenarioError (`Scenario.period`), even
    one equal to a period whose row the table holds, such as 2.0.
    """
    _check_shape(model.n_units, model.horizon, s)
    _check_dispatch(p_prev, s.n_units)
    s.period(t)
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
            f"{t}:{ip}": [float(v) for v in w]
            for (t, ip), w in sorted(model.weights.items())
        },
        "diagnostics": model.diagnostics,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _field(doc, key, kind):
    """doc[key] when it holds a `kind`; a JSON boolean is never a number."""
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ModelMismatchError(f"model field {key!r} is missing or ill-typed")
    return value


def load_model(path, scenario: Scenario | None = None, force: bool = False) -> ValueModel:
    """Read a stored model.

    When a scenario is supplied, its fingerprint must match the one the
    model was trained on; pass force=True to override deliberately. Its
    unit count and horizon must match even then (`_check_shape`). A
    document that is not a well-formed model raises ModelMismatchError:
    among others, a unit count or horizon below 1, and a weight key
    outside periods 1..horizon and modes 0..2^N-1.
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
    weights = {}
    for key, vals in _field(doc, "weights", dict).items():
        t_ip = re.fullmatch(r"([0-9]{1,4300}):([0-9]{1,4300})", key)     # int()'s digit limit
        floats = isinstance(vals, list) and all(type(v) is float for v in vals)
        w = np.array(vals if floats else [], dtype=float)
        if t_ip is None or len(w) != basis.n_features or not np.isfinite(w).all():
            raise ModelMismatchError(f"weights {key!r}: expected a t:ip key and "
                                     f"{basis.n_features} finite floats")
        t, ip = int(t_ip[1]), int(t_ip[2])
        if not (1 <= t <= horizon and ip.bit_length() <= n_units):     # no 2^N built
            raise ModelMismatchError(f"weights {key!r}: outside periods 1..{horizon} and "
                                     f"modes 0..2^{n_units}-1")
        weights[(t, ip)] = w
    return ValueModel(
        basis=basis, horizon=horizon, n_units=n_units,
        weights=weights, fingerprint=fingerprint, seed=_field(doc, "seed", int),
        samples=_field(doc, "samples", int),
        regularization=float(_field(doc, "regularization", (int, float))),
        diagnostics=doc.get("diagnostics", {}),
    )
