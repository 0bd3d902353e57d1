"""One pass of a perfbench workload, run in a fresh process.

    python3 perfbench/passrun.py --workload NAME --seed N [--trace] [--setup-only] [--freeze]

Times the set-up (importing ``oneshot_qit`` from the checkout's ``src`` and
generating the seeded inputs) and then one pass over the workload's cases,
checks included.  Prints one JSON object on stdout with ``setup_s``,
``wall_s``, ``peak_rss_mib`` (this process's ``ru_maxrss``), the check counts,
the machine facts and, with ``--trace``, per-name span statistics.  With
``--freeze`` it writes the numbers and files it produced as the frozen
expectations instead of comparing against them.

``setup_s`` and ``wall_s`` are scaled to a reference host speed (see
``HostSpeed``); ``raw_setup_s`` and ``raw_wall_s`` are the measured times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
RTOL, ATOL = 1e-7, 1e-9
MAX_REPORTED_FAILURES = 20

# Reference kernel of the host-speed samples: one eigensolve of a fixed
# complex Hermitian matrix, the operation that dominates every workload.
REF_DIM = 192
REF_SEED = 20180919
REF_KERNEL_S = 0.011        # its time on the reference host; sets the scale
SAMPLE_PERIOD_S = 0.25
SETUP_SAMPLES = 7


class PassContext:
    def __init__(self, workdir, tracer):
        self.workdir = workdir
        self.tracer = tracer

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


class HostSpeed:
    """Times a fixed reference kernel to scale pass times to a reference host.

    The host is shared.  The same eigensolve can run 20% slower ten minutes
    later, or take twice as long while another process shares the core.
    During a pass a timer signal runs the kernel every ``SAMPLE_PERIOD_S``
    seconds.  Since the samples are spread evenly over the pass, the mean of
    ``REF_KERNEL_S / sample`` is the host's mean speed during the pass
    relative to the reference host.  The pass's wall time, less the time spent
    sampling, is multiplied by it.
    """

    def __init__(self, np):
        rng = np.random.default_rng(REF_SEED)
        g = rng.standard_normal((REF_DIM, REF_DIM)) \
            + 1j * rng.standard_normal((REF_DIM, REF_DIM))
        self._matrix = g + g.conj().T
        self._eigh = np.linalg.eigh
        self.samples = []
        self.spent_s = 0.0      # time spent sampling inside ``running``

    def sample(self):
        begun = time.perf_counter()
        self._eigh(self._matrix)
        self.samples.append(time.perf_counter() - begun)

    def speed(self):
        """Mean host speed over the samples, relative to the reference."""
        return statistics.fmean(REF_KERNEL_S / t for t in self.samples)

    def _tick(self, signum, frame):
        begun = time.perf_counter()
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)
        self.spent_s += time.perf_counter() - begun

    @contextlib.contextmanager
    def running(self):
        """Sample every ``SAMPLE_PERIOD_S`` seconds within the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _close(got, want):
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


def _compare(case, rec, expected, failures):
    """Frozen-value and frozen-file checks of one case; returns (n, failed)."""
    want = expected.get(case.name)
    if want is None:
        failures.append(f"{case.name}: no frozen values")
        return 1, 1
    attempted = failed = 0
    for key in sorted(set(want) | set(rec.values)):
        attempted += 1
        if key not in want or key not in rec.values \
                or not _close(rec.values[key], want[key]):
            failed += 1
            failures.append(f"{case.name}: {key} = {rec.values.get(key)!r}, "
                            f"frozen {want.get(key)!r}")
    for fname, path in rec.files.items():
        attempted += 1
        golden = EXPECTED / "files" / fname
        with open(path, "rb") as got_fh, open(golden, "rb") as want_fh:
            if got_fh.read() != want_fh.read():
                failed += 1
                failures.append(f"{case.name}: {fname} differs from "
                                f"the frozen bytes")
    return attempted, failed


def _machine(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(workload, seed, trace=False, freeze=False, setup_only=False,
             only=None):
    """Set up and run one pass in this process; returns the result dict.

    ``only`` restricts the pass to cases whose name starts with one of the
    given prefixes (used by the tests).
    """
    expected_path = EXPECTED / f"{workload}.json"
    expected = {}
    if expected_path.exists() and not freeze:
        expected = json.loads(expected_path.read_text())
    from tracer import Tracer, summarize

    started = time.perf_counter()
    import oneshot_qit
    import oneshot_qit.cli
    import numpy as np
    import workloads
    src = (ROOT / "src").resolve()
    if Path(oneshot_qit.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"oneshot_qit imported from {oneshot_qit.__file__},"
                           f" not from {src}")
    tracer = Tracer() if trace else None
    workdir = tempfile.mkdtemp(prefix="pass-", dir=_outdir())
    ctx = PassContext(workdir, tracer)
    cases = workloads.WORKLOADS[workload](oneshot_qit, seed, ctx)
    if only:
        cases = [c for c in cases if c.name.startswith(tuple(only))]
    raw_setup_s = time.perf_counter() - started
    host = HostSpeed(np)
    for _ in range(SETUP_SAMPLES):
        host.sample()
    # the median: a few samples right after set-up, not spread over it
    result = {"setup_s": raw_setup_s * statistics.median(
                  REF_KERNEL_S / t for t in host.samples),
              "raw_setup_s": raw_setup_s, "env": _machine(np)}
    if setup_only:
        shutil.rmtree(workdir)
        return result

    frozen_seed = seed == workloads.DEFAULT_SEED
    attempted = failed = 0
    failures = []
    records = {}
    if tracer is not None:
        tracer.install(oneshot_qit)
    # a traced pass is not sampled: the samples would land in its spans
    sampling = host.running() if tracer is None else contextlib.nullcontext()
    host.samples.clear()
    host.sample()
    started = time.perf_counter()
    try:
        with sampling:
            for case in cases:
                rec = workloads.Record()
                try:
                    case.run(rec)
                except Exception:       # a raising call is a failed check
                    rec.check("raised " + traceback.format_exc(limit=-1)
                              .strip().splitlines()[-1], False)
                for label, ok in rec.checks:
                    attempted += 1
                    if not ok:
                        failed += 1
                        failures.append(f"{case.name}: {label}")
                records[case.name] = rec
                if not freeze and (frozen_seed or not case.seeded):
                    n_checked, n_failed = _compare(case, rec, expected,
                                                   failures)
                    attempted += n_checked
                    failed += n_failed
    finally:
        raw_wall_s = time.perf_counter() - started - host.spent_s
        if tracer is not None:
            tracer.uninstall()
    host.sample()
    if freeze:
        _freeze(workload, records)
    shutil.rmtree(workdir)
    result.update({
        "wall_s": raw_wall_s * host.speed(),
        "raw_wall_s": raw_wall_s,
        "host_samples": len(host.samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "values": {name: rec.values for name, rec in records.items()},
    })
    if tracer is not None:
        stats, linalg = summarize(tracer.spans)
        result["trace"] = {"stats": stats, "linalg": linalg}
        _write_spans(workload, seed, tracer.spans)
    return result


def _outdir():
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    return out


def _write_spans(workload, seed, spans):
    path = _outdir() / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _freeze(workload, records):
    files = EXPECTED / "files"
    files.mkdir(parents=True, exist_ok=True)
    frozen = {}
    for name, rec in records.items():
        frozen[name] = rec.values
        for fname, path in rec.files.items():
            shutil.copyfile(path, files / fname)
    (EXPECTED / f"{workload}.json").write_text(
        json.dumps(frozen, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    result = run_pass(args.workload, args.seed, trace=args.trace,
                      freeze=args.freeze, setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
