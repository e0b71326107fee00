"""Self-check of the benchmark itself: ``python3 bench/run.py --selfcheck``.

Runs one round of every workload at toy size and requires that only the two
known CLI faults fail.  Then it substitutes, for one more round each, a
program function that returns one wrong output, and requires that the round
counts exactly one more failed operation and reports ``correct: false``:

- one decoded value flipped (``decode``; in ``cli`` the decode command's),
- Q6 revenue off by one (``evaluate_circuit``; in ``cli`` the eval command's),
- one verify verdict flipped on a corrupted instance (``small`` only).
"""

from __future__ import annotations

import contextlib
import sys

TOY_SCALE = 0.05
SEED = 7
KNOWN_FAILURES = {"bulk": 0, "small": 0, "cli": 2}


@contextlib.contextmanager
def substituted(owner, attr, make):
    """``owner.attr`` replaced by ``make(original)`` for the duration."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _once(original, corrupt):
    """Calls ``original``; the first result ``corrupt`` can alter is altered."""
    done = [False]

    def fn(*args, **kwargs):
        out = original(*args, **kwargs)
        if not done[0]:
            altered = corrupt(out)
            if altered is not None:
                done[0] = True
                return altered
        return out

    return fn


def _flip_decoded(family):
    for label, col in family.items():
        if len(col) and isinstance(col.values[0], int):
            values = list(col.values)
            values[0] ^= 1
            return {**family, label: type(col)(col.element_type, values)}
    return None


def _revenue_plus_one(outputs):
    col = outputs.get("revenue")
    if col is None:
        return None
    return {**outputs, "revenue": type(col)(col.element_type, [col.values[0] + 1])}


def _accept_rejected(verdict):
    return True if verdict is False else None


def faults(name):
    import colcirc
    import colcirc.cli as cli

    owner = cli if name == "cli" else colcirc
    out = [
        ("decoded value flipped", owner, "decode", _flip_decoded),
        ("revenue off by one", owner, "evaluate_circuit", _revenue_plus_one),
    ]
    if name == "small":
        out.append(("verify verdict flipped on a corruption", colcirc, "verify", _accept_rejected))
    return out


def main(make_workload, run_rounds):
    problems = []
    for name, known in KNOWN_FAILURES.items():
        workload = make_workload(name, SEED, TOY_SCALE)
        try:
            base, errors = run_rounds(workload, 0).summary()
            line = f"{name}: {base['attempted']} operations, {base['failed']} failed, correct={base['correct']}"
            ok = base["failed"] == known and base["correct"]
            print(("ok   " if ok else "FAIL ") + line)
            if not ok:
                problems.append(line)
                problems.extend(errors)
            for what, owner, attr, corrupt in faults(name):
                with substituted(owner, attr, lambda original: _once(original, corrupt)):
                    got, _ = run_rounds(workload, 0).summary()
                line = f"{name} with {what}: {got['failed']} failed (was {base['failed']}), correct={got['correct']}"
                ok = got["failed"] == base["failed"] + 1 and not got["correct"]
                print(("ok   " if ok else "FAIL ") + line)
                if not ok:
                    problems.append(line)
        finally:
            if hasattr(workload, "close"):
                workload.close()
    for line in problems:
        print(f"self-check failure: {line}", file=sys.stderr)
    return 1 if problems else 0
