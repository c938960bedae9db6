"""Build file of the benchmark.

Compiles the program's Scala sources (``src/main/scala``) together with the
benchmark's own (``perfbench/src``) with the Scala compiler that ships in
Spark's ``jars`` directory, packs them into one jar, and records a class-data
sharing (CDS) archive from a short training run, all under
``.bench_build/perfbench/<digest>/`` in the current directory (the repository
root). The archive lets each measured JVM map Spark's classes instead of
loading them from some 300 jars, which cuts JVM and SparkSession start-up by
about ten seconds. A build is reused while the sources are unchanged. Needs
no sbt and no network.

    python3 perfbench/build.py        # prints the build directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

PROGRAM_SOURCES = os.path.join("src", "main", "scala")
BENCH_SOURCES = os.path.join("perfbench", "src")
OUT = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 600
HEAP = "3g"

# The host is shared, and other tenants' load shows as CPU steal. A JVM (and
# Spark's local[*]) that believes it has every core runs more threads than
# the cores it gets, and each query's many thread hand-offs then wait on
# preempted cores. In trials on a 4-vCPU host, two cores gave lower query
# latency, and less steal, than four (see README.md). Lower JIT thresholds
# shorten the warm-up drift (latency falling over the first few hundred
# queries of a fresh JVM) that would otherwise land in the timed phase.
CORES = min(2, len(os.sched_getaffinity(0)))
STEADY_FLAGS = [f"-XX:ActiveProcessorCount={CORES}", "-XX:CompileThresholdScaling=0.2"]

# Spark 4 on JDK 17 needs these module opens in any JVM that runs it.
JDK17_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]

# The training run that records the CDS archive: a tiny traced run touches
# every class a measured run loads; concurrent clients keep it short.
TRAINING_ARGS = ["--workload", "aids-concurrent", "--seed", "0", "--seconds", "0",
                 "--trace", "1", "--scale", "0.01"]


class BuildError(Exception):
    pass


def spark_jars():
    """Spark's jars directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars) or \
            not any(f.startswith("scala-compiler") for f in os.listdir(jars)):
        raise BuildError("no Spark installation with a Scala compiler (set SPARK_HOME)")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found (set JAVA_HOME)")
    return exe


def sources(root):
    files = []
    for top in (PROGRAM_SOURCES, BENCH_SOURCES):
        found = [os.path.join(d, f)
                 for d, _, names in os.walk(os.path.join(root, top))
                 for f in names if f.endswith(".scala")]
        if not found:
            raise BuildError(f"no Scala sources under {top}")
        files += found
    return sorted(os.path.relpath(f, root) for f in files)


def digest(root, files):
    """SHA-256 over the relative paths and contents of `files`."""
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode() + b"\0")
        with open(os.path.join(root, f), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def jvm_command(root, out, cds_flag, args, props=()):
    """The benchmark JVM: Spark's scratch files under .bench_build/run."""
    scratch = os.path.join(root, ".bench_build", "run")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return [java(), f"-Xmx{HEAP}", "-Xss8m", cds_flag, *STEADY_FLAGS,
            *[f"--add-opens={p}=ALL-UNNAMED" for p in JDK17_OPENS],
            "-Dio.netty.tryReflectionSetAccessible=true",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.local.dir={os.path.join(scratch, 'spark-local')}",
            f"-Dspark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}",
            "-Dspark.driver.host=127.0.0.1",
            *[f"-D{k}={v}" for k, v in props],
            "-cp", os.pathsep.join([os.path.join(out, "perfbench.jar"),
                                    os.path.join(spark_jars(), "*")]),
            "repro.perfbench.Main", *args]


def cds_archive(out):
    return os.path.join(out, "classes.jsa")


def run_checked(cmd, root, what, **kw):
    try:
        done = subprocess.run(cmd, cwd=root, timeout=BUILD_TIMEOUT_S, **kw)
    except subprocess.TimeoutExpired:
        raise BuildError(f"{what} did not finish within {BUILD_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BuildError(f"{what} exited with {done.returncode}")


def build(root):
    """Build if needed; returns (build directory, source digest)."""
    files = sources(root)
    sha = digest(root, files + [os.path.join("perfbench", "build.py")])
    out_root = os.path.join(root, OUT)
    out = os.path.join(out_root, sha[:16])
    if os.path.exists(os.path.join(out, "ok")):
        return out, sha
    jars = spark_jars()
    if os.path.isdir(out_root):
        shutil.rmtree(out_root)
    classes = os.path.join(out, "classes")
    os.makedirs(classes)
    argfile = os.path.join(out, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(os.path.join(root, f) for f in files) + "\n")
    run_checked([java(), "-Xss8m", "-Xmx1g", "-cp", os.path.join(jars, "*"),
                 "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", classes, "@" + argfile],
                root, "the Scala compiler")
    with zipfile.ZipFile(os.path.join(out, "perfbench.jar"), "w") as jar:
        for d, _, names in os.walk(classes):
            for n in names:
                path = os.path.join(d, n)
                jar.write(path, os.path.relpath(path, classes))
    shutil.rmtree(classes)
    log = os.path.join(out, "training.log")
    with open(log, "w") as fh:
        run_checked(jvm_command(root, out, f"-XX:ArchiveClassesAtExit={cds_archive(out)}", TRAINING_ARGS),
                    root, f"the CDS training run (see {log})", stdout=fh, stderr=fh)
    open(os.path.join(out, "ok"), "w").close()
    return out, sha


if __name__ == "__main__":
    try:
        print(build(os.getcwd())[0])
    except BuildError as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        sys.exit(1)
