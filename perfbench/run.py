"""Benchmark of the served GBDA path. Run from the repository root:

    python3 perfbench/run.py --workload <aids-serve|syn-large|aids-concurrent> \\
        --seed <n> --seconds <s> --trace <0|1> [--scale <fraction>]

Builds the program and the benchmark from source if needed (see build.py),
then makes one measured run in a fresh JVM. The last line of standard output
is the result as one JSON object. Spark's scratch files stay under
.bench_build/ in the current directory.
"""

import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 175


def git_commit(root):
    """HEAD of the repository at `root` itself, or "unknown" outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    # On SIGTERM, unwind so the child processes below are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    try:
        out, sha = build.build(root)
        cmd = build.jvm_command(root, out, f"-XX:SharedArchiveFile={build.cds_archive(out)}", argv,
                                [("perfbench.commit", git_commit(root)), ("perfbench.sources", sha),
                                 ("perfbench.host_cpus", os.cpu_count())])
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
