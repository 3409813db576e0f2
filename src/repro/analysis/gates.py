"""The analysis gates as one table: config → report → verdict → text.

Each of ``repro verify``/``cost``/``chaos``/``replay``/``mc``/``prove``
is a :class:`Gate` entry in :data:`GATES`, and every consumer goes
through it:

* the CLI turns its flags into a config and calls :func:`evaluate`, or
  sends the same config to ``repro serve``, whose workers call
  :func:`evaluate` too — so a routed gate prints, records and exits
  exactly like a local one;
* ``repro audit`` re-runs a stored artifact's config through
  :func:`evaluate`.

A config is the JSON dict a run artifact stores; ``Gate.defaults`` is
the one place a partial config is completed. Entries whose name has a
dot (``cost.point``, ``verify.mc`` …) are the single-point and
model-checked variants of a gate: they share its verdict and renderer
but are never recorded as artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import ConfigurationError
from ..machine import MachineSpec, ideal
from ..service.protocol import decode_spec
from ..sim.faults import FaultPlan
from ..util import Table
from .certify import DEFAULT_XVAL_RANGE, prove_all, prove_collective
from .chaos import DEFAULT_NBYTES as CHAOS_NBYTES
from .chaos import DEFAULT_RANKS as CHAOS_RANKS
from .chaos import chaos_gate
from .costmodel import analyze_collective, differential_gate
from .modelcheck import DEFAULT_MAX_STATES, DEFAULT_NBYTES as MC_NBYTES
from .modelcheck import check_collective, mc_grid
from .replaygate import DEFAULT_RANKS as REPLAY_RANKS
from .replaygate import DEFAULT_SIZES, replay_gate
from .verify import registered, verifiable_collectives, verify_collective

__all__ = [
    "GATES", "Gate", "check_config", "configure", "cost_pass", "evaluate",
    "recorded",
]


@dataclass(frozen=True)
class Gate:
    """One gate: how to run a config, judge the report and print it."""

    run: Callable[[dict], Any]
    verdict: Callable[[Any, bool], bool]  # (report, strict) -> exit 0?
    render: Callable[[Any, dict, bool], str]  # (report, config, strict)
    defaults: Dict[str, Any] = field(default_factory=dict)


def _spec(config: dict) -> Optional[MachineSpec]:
    """The config's machine, or ``None`` for the gate's own default."""
    return decode_spec(config["spec"]) if config.get("spec") else None


def _ok_if_strict(report: Any, strict: bool) -> bool:
    """Differential gates fail the exit code only under ``--strict``."""
    return report.ok or not strict


def _grid_text(table: Table, report: Any) -> str:
    """A grid table, then the report's failures, tally and verdict."""
    return "\n".join([str(table), *report.describe().splitlines()[1:]])


# -- verify ------------------------------------------------------------
def _verify(config: dict, modelcheck: bool = False) -> list:
    return [
        verify_collective(
            name,
            nranks,
            nbytes=config["nbytes"],
            root=config["root"],
            rendezvous=config["rendezvous"],
            modelcheck=modelcheck,
            mc_max_states=config.get("mc_max_states", DEFAULT_MAX_STATES),
        )
        for nranks in config["ranks"]
        for name in (
            verifiable_collectives(nranks)
            if config["collective"] == "all"
            else [config["collective"]]
        )
    ]


def _verify_ok(reports: list, strict: bool) -> bool:
    return all(r.ok_strict() if strict else r.ok for r in reports)


def _verify_text(reports: list, config: dict, strict: bool) -> str:
    table = Table(
        ["collective", "P", "transfers", "redundant", "expected", "hazards",
         "rendezvous", "verdict"],
        title=(
            f"static schedule verification (nbytes={config['nbytes']}, "
            f"root={config['root']})"
        ),
    )
    verdicts = [_verify_ok([r], strict) for r in reports]
    for r, ok in zip(reports, verdicts):
        table.add_row(
            r.collective,
            r.nranks,
            r.transfers,
            r.redundant_count if r.tracked else "-",
            r.expected_redundant if r.expected_redundant is not None else "-",
            len(r.hazards),
            "-" if r.rendezvous is None
            else ("DEADLOCK" if r.rendezvous.deadlocked else "safe"),
            "OK" if ok else "FAIL",
        )
    failed = [r for r, ok in zip(reports, verdicts) if not ok]
    lines = [str(table)]
    for r in failed:
        lines += ["", r.describe()]
    lines += ["", f"{len(reports) - len(failed)}/{len(reports)} schedule(s) verified"]
    return "\n".join(lines)


def cost_pass(reports: List[dict]) -> List[str]:
    """Failures of the verify gate's cost-model consistency pass.

    The static cost model must reproduce each verify report's transfer
    count from its own schedule extraction, with a nonzero time bound.
    """
    failures = []
    for r in reports:
        where = f"{r['collective']} P={r['nranks']}"
        try:
            cost = analyze_collective(
                r["collective"], r["nranks"], r["nbytes"], root=r["root"],
                spec=ideal(),
            )
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"{where}: cost model raised {type(exc).__name__}: {exc}")
            continue
        if cost.transfers != r["transfers"]:
            failures.append(
                f"{where}: cost model counted {cost.transfers} transfer(s), "
                f"verifier {r['transfers']}"
            )
        elif cost.transfers > 0 and cost.t_bound <= 0:
            failures.append(
                f"{where}: {cost.transfers} transfer(s) but a zero time bound"
            )
    return failures


# -- cost --------------------------------------------------------------
def _cost_point(config: dict) -> list:
    nranks = config["nranks"]
    names = (
        verifiable_collectives(nranks)
        if config["collective"] == "all"
        else [config["collective"]]
    )
    return [
        analyze_collective(
            name, nranks, config["nbytes"], root=config["root"],
            spec=_spec(config), placement=config["placement"],
        )
        for name in names
    ]


def _cost_text(reports: list, config: dict, strict: bool) -> str:
    table = Table(
        ["collective", "transfers", "bytes", "rounds", "t_chain us",
         "t_link us", "t_bound us", "busiest link"],
        formats=[None, None, None, None, ".2f", ".2f", ".2f", None],
        title=(
            f"static cost model: P={config['nranks']}, nbytes={config['nbytes']}, "
            f"root={config['root']} on {config['spec']['name']} "
            f"({config['placement']})"
        ),
    )
    for r in reports:
        busiest = r.busiest_link
        table.add_row(
            r.collective, r.transfers, r.total_bytes, r.rounds,
            r.t_chain * 1e6, r.t_link * 1e6, r.t_bound * 1e6,
            busiest.name if busiest is not None else "-",
        )
    return str(table)


# -- chaos / replay ------------------------------------------------------
def _chaos_text(report: Any, config: dict, strict: bool) -> str:
    table = Table(
        ["collective", "P", "plan", "status", "drops", "retrans",
         "timeouts", "ACKs"],
        title=(
            f"chaos differential gate: seed={report.seed}, "
            f"nbytes={report.nbytes} on {report.machine}"
        ),
    )
    for c in report.checks:
        table.add_row(
            c.collective, c.nranks, c.plan, c.status.upper(),
            c.drops, c.retrans, c.timeouts, c.acks,
        )
    return _grid_text(table, report)


def _replay(config: dict) -> Any:
    return replay_gate(
        spec=_spec(config),
        collectives=config.get("collectives"),
        ranks=config["ranks"],
        sizes=config["sizes"],
    )


def _replay_text(report: Any, config: dict, strict: bool) -> str:
    table = Table(
        ["collective", "P", "nbytes", "sends", "status"],
        title=f"replay differential gate (bitwise DES equality) on {report.machine}",
    )
    for c in report.checks:
        table.add_row(c.collective, c.nranks, c.nbytes, c.sends, c.status.upper())
    return _grid_text(table, report)


# -- mc ----------------------------------------------------------------
def _mc_ok(report: Any, strict: bool) -> bool:
    statuses = {c.status for c in report.checks}
    return "fail" not in statuses and not (strict and "incomplete" in statuses)


def _mc_text(report: Any, config: dict, strict: bool) -> str:
    table = Table(
        ["collective", "P", "plan", "mode", "states", "execs", "terminals",
         "status"],
        title=(
            f"match-order model checking (nbytes={report.nbytes}, "
            f"max_states={report.max_states}, seed={report.seed})"
        ),
    )
    for c in report.checks:
        table.add_row(
            c.collective, c.nranks, c.plan, c.mode, c.states, c.executions,
            c.terminals, c.status.upper(),
        )
    # Only hard failures get a FAIL line: an incomplete cell fails only
    # under --strict, and its status column already says INCOMPLETE.
    fails = [
        f"  FAIL {c.collective} P={c.nranks} plan={c.plan}: {c.detail}"
        for c in report.checks
        if c.status == "fail"
    ]
    return "\n".join([str(table), *fails, report.describe().splitlines()[-1]])


def _mc_point(config: dict) -> list:
    probs = {k: config[k] for k in ("drop_p", "dup_p", "corrupt_p")}
    faults = (
        FaultPlan.uniform(seed=config["seed"], name="cli", **probs)
        if any(probs.values())
        else None
    )
    return [
        check_collective(
            config["collective"],
            nranks,
            nbytes=config["nbytes"],
            root=config["root"],
            mode=config["mode"],
            max_states=config["max_states"],
            faults=faults,
            max_attempts=config["max_attempts"],
        )
        for nranks in config["ranks"]
    ]


# -- prove -------------------------------------------------------------
def _prove_point(config: dict) -> Any:
    return prove_collective(
        config["collective"],
        xval_lo=config["xval_lo"],
        xval_hi=config["xval_hi"],
        nbytes=config["nbytes"],
        skip_crossval=config["skip_crossval"],
    )


def _certificate_text(cert: Any, config: dict, strict: bool) -> str:
    lines = []
    for o in cert.obligations:
        mark = {"proved": "ok", "structural": "ok*"}.get(o.status, "FAIL")
        lines.append(f"  [{mark:>4}] {o.oid}: {o.statement}")
    xval = (
        "skipped"
        if cert.crossval_skipped
        else f"{cert.crossval_points} point(s), "
        f"{len(cert.crossval_failures)} failure(s)"
    )
    lines += [f"  XVAL {fdesc}" for fdesc in cert.crossval_failures[:10]]
    lines.append(
        f"{cert.collective}: {'ok' if cert.ok else 'FAILED'} — "
        f"{len(cert.obligations)} obligation(s), crossval {xval}"
    )
    return "\n".join(lines)


_VERIFY_DEFAULTS = {
    "collective": "all", "ranks": [8], "nbytes": 65536, "root": 0,
    "rendezvous": True,
}

GATES: Dict[str, Gate] = {
    "verify": Gate(_verify, _verify_ok, _verify_text, _VERIFY_DEFAULTS),
    "verify.mc": Gate(
        lambda c: _verify(c, modelcheck=True), _verify_ok, _verify_text,
        {**_VERIFY_DEFAULTS, "mc_max_states": DEFAULT_MAX_STATES},
    ),
    "cost": Gate(
        lambda c: differential_gate(
            spec=_spec(c), placement=c["placement"], band=c["band"]
        ),
        _ok_if_strict,
        lambda report, c, strict: report.describe(),
        {"spec": None, "placement": "blocked", "band": 0.5},
    ),
    "cost.point": Gate(_cost_point, lambda reports, strict: True, _cost_text),
    "chaos": Gate(
        lambda c: chaos_gate(
            seed=c["seed"], spec=_spec(c), collectives=c["collectives"],
            ranks=c["ranks"], nbytes=c["nbytes"],
        ),
        _ok_if_strict,
        _chaos_text,
        {"spec": None, "seed": 0, "collectives": None,
         "ranks": list(CHAOS_RANKS), "nbytes": CHAOS_NBYTES},
    ),
    "replay": Gate(
        _replay, _ok_if_strict, _replay_text,
        {"spec": None, "ranks": list(REPLAY_RANKS), "sizes": list(DEFAULT_SIZES)},
    ),
    "replay.point": Gate(_replay, _ok_if_strict, _replay_text),
    "mc": Gate(
        lambda c: mc_grid(
            nbytes=c["nbytes"], max_states=c["max_states"], seed=c["seed"]
        ),
        _mc_ok,
        _mc_text,
        {"nbytes": MC_NBYTES, "max_states": DEFAULT_MAX_STATES, "seed": 0},
    ),
    "mc.point": Gate(
        _mc_point,
        lambda reports, strict: all(
            r.ok and (r.complete or not strict) for r in reports
        ),
        lambda reports, c, strict: "\n".join(r.describe() for r in reports),
    ),
    "prove": Gate(
        lambda c: prove_all(
            xval_lo=c["xval_lo"], xval_hi=c["xval_hi"], nbytes=c["nbytes"],
            skip_crossval=c["skip_crossval"],
        ),
        lambda report, strict: report.ok_strict() if strict else report.ok,
        lambda report, c, strict: report.describe(),
        {"xval_lo": DEFAULT_XVAL_RANGE[0], "xval_hi": DEFAULT_XVAL_RANGE[1],
         "nbytes": 65536, "skip_crossval": False},
    ),
    "prove.point": Gate(
        _prove_point,
        lambda cert, strict: cert.ok and not (strict and cert.crossval_skipped),
        _certificate_text,
    ),
}


def recorded(name: str) -> bool:
    """Whether runs of this entry are stored as (auditable) artifacts."""
    return name in GATES and "." not in name


def check_config(config: dict) -> None:
    """Typed usage errors for a malformed config, before anything runs."""
    ranks = list(config.get("ranks") or [])
    if "nranks" in config:
        ranks.append(config["nranks"])
    root = config.get("root", 0)
    for nranks in ranks:
        if not isinstance(nranks, int) or nranks < 1:
            raise ConfigurationError(f"process counts must be >= 1, got {nranks!r}")
        if not isinstance(root, int) or not 0 <= root < nranks:
            raise ConfigurationError(
                f"root {root!r} is not a rank of P={nranks} (need 0 <= root < P)"
            )
    for name in config.get("collectives") or [config.get("collective", "all")]:
        if name != "all":
            for nranks in ranks or [None]:
                registered(name, nranks)


def configure(name: str, config: dict) -> dict:
    """The complete, checked config of gate *name* (defaults filled in)."""
    gate = GATES.get(name)
    if gate is None:
        raise ConfigurationError(f"unknown gate {name!r}; known: {sorted(GATES)}")
    config = {**gate.defaults, **config}
    check_config(config)
    return config


def evaluate(name: str, config: dict, strict: bool = False) -> dict:
    """Run one gate: ``{"ok": verdict, "text": table, "report": payload}``.

    ``report`` is the JSON payload a run artifact records and ``--json``
    prints; ``ok`` is the exit verdict (``strict`` as the CLI flag).
    """
    config = configure(name, config)
    gate = GATES[name]
    report = gate.run(config)
    return {
        "ok": gate.verdict(report, strict),
        "text": gate.render(report, config, strict),
        "report": (
            [r.to_dict() for r in report]
            if isinstance(report, list)
            else report.to_dict()
        ),
    }
