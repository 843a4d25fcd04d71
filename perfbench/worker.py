"""One pass over a corpus, in a fresh process: python3 worker.py ROOT < job.

The job (JSON on stdin) holds the workload name, the per-case time limit,
whether to trace, one warm-up input and the cases in the order to run them.
Only inputs reach this process; the expected answers stay with the caller.

The pass starts cold: qdescent is imported here, so its module caches
(localfields._CHAIN_CACHE, _RESFIELDS) hold only what this pass put there.
Set-up is the import, the conversion of every input into program objects
and the warm-up input.  Each case then runs once under the time limit.
The result (JSON on stdout) holds the set-up time, each case's status,
time and output summary, the peak RSS of this process and, when tracing,
the per-layer counters of the pass.

Times are in reference seconds.  The speed of a shared virtual machine
drifts by up to 2x over seconds to minutes, and a fixed loop of Python
arithmetic (calibrate) slows with the program.  A Meter times the loop
before and after every span it measures and, from a SIGALRM tick, every
TICK_S within it; each piece of the span between two loops counts its wall
time times REF_CAL_S over the mean of those two loop times.  The loops
themselves are left out.  The per-case limit is in reference seconds, and
is checked at every tick.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import sys
from fractions import Fraction
from time import perf_counter


class CaseLimit(BaseException):
    """Raised in a case that runs past the limit.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


# The time of one calibrate() at the reference speed: about its median
# between ledger cases on a 2-vCPU x86-64 VM under Python 3.11.
REF_CAL_S = 0.0070
CAL_ROUNDS = 1000
TICK_S = 0.2


def calibrate() -> float:
    """Wall time of a fixed loop of Fraction and dict arithmetic.

    The cycle collector is off in the loop, so that its time does not
    depend on how many objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    d, x = {}, Fraction(1, 3)
    for i in range(CAL_ROUNDS):
        x = (x * 7 + i) % 1000003
        d[i % 97] = x
    t = perf_counter() - t0
    if enabled:
        gc.enable()
    return t


class Meter:
    """Reference time of calls, measured piecewise between calibrations."""

    def __init__(self):
        calibrate()  # the first call also warms the loop's own code
        self.cal = calibrate()
        self.armed = False

    def _close(self, now: float) -> None:
        """End the current piece at `now`, calibrate, start the next."""
        cal = calibrate()
        self.ref += (now - self.start) * REF_CAL_S / ((self.cal + cal) / 2)
        self.cal = cal
        self.start = perf_counter()

    def _on_tick(self, signum, frame):
        if not self.armed:
            return
        self.armed = False
        self._close(perf_counter())
        self.armed = True
        if self.ref > self.limit:
            raise CaseLimit()

    def run(self, fn, limit: float = float("inf")):
        """(status, reference seconds, result or error text) of fn(),
        stopped once it has used `limit` reference seconds."""
        self.ref = 0.0
        self.limit = limit
        signal.signal(signal.SIGALRM, self._on_tick)
        self.start = perf_counter()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = fn()
            status = "ok"
        except CaseLimit:
            result, status = f"time limit of {limit} s", "limit"
        except Exception as exc:  # a failed case is recorded, the pass goes on
            result, status = f"{type(exc).__name__}: {exc}", "error"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
        self._close(end)
        return status, self.ref, result


# ---------------------------------------------------------------------------
# inputs -> program objects, and the call each case makes


def _rows(reports):
    return [[str(r["place"]), r["C"], r["S"], r["I"], r.get("kodaira", "-")]
            for r in reports]


class Elliptic:
    """A case: assemble_ledger_elliptic, plus local_descent_report for a
    rational 2- or 3-isogeny kernel at infinity and every bad place."""

    def __init__(self, q):
        from qdescent.elliptic import Pt, curve_from_string

        self.m = curve_from_string(q["curve"])
        self.class_d = q.get("class_d")
        self.points = q.get("points") or None
        self.kernel = [Pt(Fraction(x), Fraction(y))
                       for x, y in q.get("kernel") or []]

    def __call__(self):
        from qdescent import descent_global as dg
        from qdescent import descent_local as dl
        from qdescent import elliptic
        from qdescent.arith import REAL_PLACE, finite

        records = ([dg.quadratic_class_record(self.class_d)]
                   if self.class_d is not None else None)
        ledger = dg.assemble_ledger_elliptic(self.m, records, self.points)
        iso = []
        if self.kernel:
            phi = elliptic.velu_isogeny(self.m, self.kernel)
            places = [REAL_PLACE] + [finite(p) for p in dg.bad_primes(self.m)]
            iso = [dl.local_descent_report(self.m, phi, v).as_dict()
                   for v in places]
        return {"reports": _rows(ledger.local_reports), "iso": _rows(iso),
                "points_rank": ledger.points_rank_lower,
                "interval": list(ledger.selmer_rank_interval)}


def descent_point(p):
    """JSON point -> descent point: "a/b" is (a/b, y); ["sum", P, Q] a sum."""
    if isinstance(p, list):
        return ("sum", tuple(descent_point(q) for q in p[1:]))
    return ("rational", Fraction(p), None)


class Hyper:
    """A case: assemble_ledger_hyper with the given points."""

    def __init__(self, q):
        from qdescent.jacobian import HyperellipticCurve
        from qdescent.poly import RatPoly

        self.curve = HyperellipticCurve(RatPoly(q["f"]))
        self.points = [descent_point(p) for p in q.get("points", [])]

    def __call__(self):
        from qdescent import descent_global as dg

        ledger = dg.assemble_ledger_hyper(self.curve, points=self.points)
        return {"reports": _rows(ledger.local_reports),
                "points_rank": ledger.points_rank_lower}


class Tfae:
    """A case: one TFAE verdict."""

    def __init__(self, q):
        from qdescent.poly import RatPoly

        self.f = RatPoly(q["f"])

    def __call__(self):
        from qdescent import tfae

        r = tfae.tfae_test(self.f)
        return {"holds": r.holds, "certificate": r.certificate,
                "pattern": r.pattern}


KINDS = {"ell-ledger": Elliptic, "hyper-ledger": Hyper, "tfae": Tfae}


def run_pass(job: dict) -> dict:
    meter = Meter()

    def setup():
        import qdescent.descent_global  # noqa: F401  (imports every layer)
        import qdescent.tfae  # noqa: F401

        kind = KINDS[job["workload"]]
        warm = kind(job["warmup"])
        cases = [(c["id"], kind(c["input"])) for c in job["cases"]]
        warm()
        return cases

    status, setup_s, cases = meter.run(setup)
    if status != "ok":
        raise RuntimeError(f"set-up failed: {cases}")
    tracer = None
    if job["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    out = []
    for cid, case in cases:
        status, seconds, result = meter.run(case, job["limit"])
        out.append({"id": cid, "status": status, "seconds": seconds,
                    "result": result})
    return {"setup_s": setup_s, "cases": out, "peak_rss_mb": peak_rss_mb(),
            "layers": tracer.snapshot() if tracer else None}


def peak_rss_mb() -> float:
    """Peak RSS of this process in MB: VmHWM, which starts afresh at exec.

    ru_maxrss would not do: Linux carries it over from the image the
    process had before exec, here the parent's.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    root = sys.argv[1]
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "qdescent")):
        sys.exit(f"no qdescent package under {src}")
    sys.path.insert(0, src)
    job = json.load(sys.stdin)
    json.dump(run_pass(job), sys.stdout)


if __name__ == "__main__":
    main()
