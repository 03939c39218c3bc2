"""Per-function summaries propagated to fixpoint over the call graph.

Two lightweight analyses feed the interprocedural rules:

- **dtype summaries** (RPR011): each function gets one of ``"wide"``
  (provably returns a 64-bit-safe value), ``"narrow"`` (some return
  path yields a provably narrow array — int32 and friends),
  ``"preserves"`` (returns a parameter, possibly through a
  dtype-preserving method like ``.copy()``), or ``"unknown"``.  The
  lattice is resolved by iterating call edges to fixpoint; ``narrow``
  wins over everything on a join (a single narrow return path is enough
  to poison a downstream reduction).

- **acquirer propagation** (RPR009): functions whose tracked resource
  acquisition escapes via ``return``/``yield`` transfer the release
  obligation to their callers.  Calls to such functions become
  acquisition sites themselves, transitively, so a leak three wrappers
  away from the raw ``SharedMemory(...)`` still surfaces at the wrapper
  call site.

Summaries work on :class:`~repro.analysis.model.ProjectModel` facts
only — no re-parsing — so they are cheap enough to run on every scan.
"""

from __future__ import annotations

from .model import ProjectModel

__all__ = ["dtype_summaries", "acquirer_functions", "WIDE", "NARROW",
           "PRESERVES", "UNKNOWN"]

WIDE = "wide"
NARROW = "narrow"
PRESERVES = "preserves"
UNKNOWN = "unknown"

_MAX_ROUNDS = 20  # summary lattice has height 3; this is pure paranoia


def _join(atoms: list[str]) -> str:
    """Combine resolved per-return atoms into one function summary."""
    if not atoms:
        return UNKNOWN
    if NARROW in atoms:
        return NARROW
    if all(a == WIDE for a in atoms):
        return WIDE
    if all(a in (WIDE, PRESERVES) for a in atoms):
        return PRESERVES
    return UNKNOWN


def dtype_summaries(model: ProjectModel) -> dict[str, str]:
    """``function id -> WIDE | NARROW | PRESERVES | UNKNOWN`` fixpoint."""
    summaries: dict[str, str] = {fid: UNKNOWN for fid in model.functions}
    for _ in range(_MAX_ROUNDS):
        changed = False
        for fid, (mod, fn) in model.functions.items():
            resolved: list[str] = []
            for atom in fn.returns:
                if atom in (WIDE, NARROW, UNKNOWN):
                    resolved.append(atom)
                elif atom.startswith("param:"):
                    resolved.append(PRESERVES)
                elif atom.startswith("call:"):
                    target = model.resolve_call(mod, fn, atom[5:])
                    if target is None:
                        resolved.append(UNKNOWN)
                    else:
                        # a callee that preserves its input gives us no
                        # information at this call site -> unknown here
                        callee = summaries[target]
                        resolved.append(
                            callee if callee in (WIDE, NARROW) else UNKNOWN
                        )
                else:  # pragma: no cover - future atom kinds degrade safely
                    resolved.append(UNKNOWN)
            new = _join(resolved)
            if new != summaries[fid]:
                summaries[fid] = new
                changed = True
        if not changed:
            break
    return summaries


def acquirer_functions(model: ProjectModel) -> dict[str, str]:
    """``function id -> resource kind`` for functions that hand an
    unreleased tracked resource to their caller."""
    acquirers: dict[str, str] = {}
    for fid, (_mod, fn) in model.functions.items():
        if fn.returns_resource:
            kinds = [a.kind for a in fn.acquisitions]
            acquirers[fid] = kinds[0] if kinds else "resource"
    # transitive: f() { return make_shm() } is itself an acquirer
    for _ in range(_MAX_ROUNDS):
        changed = False
        for fid, (mod, fn) in model.functions.items():
            if fid in acquirers:
                continue
            for atom in fn.returns:
                if not atom.startswith("call:"):
                    continue
                target = model.resolve_call(mod, fn, atom[5:])
                if target is not None and target in acquirers:
                    acquirers[fid] = acquirers[target]
                    changed = True
                    break
        if not changed:
            break
    return acquirers
