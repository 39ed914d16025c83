"""What a fresh interpreter loads and starts when it imports the package.

``import curetail`` is lazy, so it loads no numpy; ``curetail.cli`` asks
OpenBLAS for one thread unless the user chose a count or numpy was loaded
first, and a fit's bits do not depend on that count.  Each test runs its
code in a new ``python -c`` process, since the test process has long since
loaded numpy.
"""
import json
import os
import subprocess
import sys

import pytest

import curetail

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads through /proc/self/task")
needs_linux = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                 reason="reads ru_maxrss in KiB, as Linux reports it")
needs_two_cpus = pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                                    reason="OpenBLAS starts no more threads than usable CPUs")


def run_fresh(code, **env):
    """Run ``code`` in a new interpreter that imports this checkout's package
    and return the JSON it prints.  ``env`` sets variables; a None value
    removes one."""
    src = os.path.dirname(os.path.dirname(curetail.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    child = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for key, value in env.items():
        child.pop(key, None)
        if value is not None:
            child[key] = value
    out = subprocess.run([sys.executable, "-c", "import json, os, sys\n" + code],
                         env=child, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_loads_no_numpy():
    got = run_fresh("import curetail\n"
                    "print(json.dumps(sorted(m for m in sys.modules\n"
                    "                        if m == 'numpy' or m.startswith('curetail'))))")
    assert got == ["curetail"]


def test_every_public_name_resolves_on_first_use():
    got = run_fresh(
        "import curetail\n"
        "bound = sorted(set(curetail.__all__) & set(vars(curetail)))\n"
        "scope = {}\n"
        "exec('from curetail import *', scope)\n"
        "star = sorted(set(scope) - {'__builtins__'})\n"
        "same = all(scope[n] is getattr(curetail, n) is not None for n in curetail.__all__)\n"
        "print(json.dumps([bound, star, sorted(curetail.__all__), dir(curetail), same]))")
    bound, star, names, listed, same = got
    assert bound == []
    assert len(names) == 58
    assert star == names
    assert listed == names
    assert same


def test_submodule_resolves_after_bare_import():
    got = run_fresh(
        "import curetail\n"
        "before = 'curetail.survival' in sys.modules\n"
        "name = curetail.survival.__name__\n"
        "try:\n"
        "    curetail.no_such_name\n"
        "    missing = 'resolved'\n"
        "except AttributeError:\n"
        "    missing = 'AttributeError'\n"
        "print(json.dumps([before, name, missing]))")
    assert got == [False, "curetail.survival", "AttributeError"]


@needs_proc
def test_cli_import_starts_one_blas_thread():
    got = run_fresh("import curetail.cli\n"
                    "print(json.dumps([len(os.listdir('/proc/self/task')),\n"
                    "                  os.environ.get('OPENBLAS_NUM_THREADS'),\n"
                    "                  'numpy' in sys.modules]))",
                    OPENBLAS_NUM_THREADS=None)
    assert got == [1, "1", True]


@needs_proc
@needs_two_cpus
def test_user_blas_thread_count_wins():
    got = run_fresh("import curetail\n"
                    "tasks = [len(os.listdir('/proc/self/task'))]\n"
                    "import curetail.cli\n"
                    "tasks.append(len(os.listdir('/proc/self/task')))\n"
                    "print(json.dumps([tasks, os.environ.get('OPENBLAS_NUM_THREADS')]))",
                    OPENBLAS_NUM_THREADS="2")
    assert got == [[1, 2], "2"]


def test_numpy_loaded_first_keeps_environment():
    code = "import curetail.cli\nprint(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
    assert run_fresh(code, OPENBLAS_NUM_THREADS=None) == "1"
    assert run_fresh("import numpy\n" + code, OPENBLAS_NUM_THREADS=None) is None


@needs_two_cpus
def test_fit_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product of more than 10 000 terms across its
    # threads; at k = 10 001 every kernel row is longer than that
    code = ("from curetail import FitConfig, km_fit, order_sample\n"
            "from curetail.estimators import MODEL_NAMES, fit_fields\n"
            "from curetail.simulate import sample_scenario, scenario_spec\n"
            "o = order_sample(sample_scenario(scenario_spec(2, 20000, 1, 0.8, 11), 0))\n"
            "c = km_fit(o)\n"
            "print(json.dumps([repr(fit_fields(name, o, c, FitConfig(k=10001)))\n"
            "                  for name in MODEL_NAMES]))")
    one, two = (run_fresh(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert len(one) == 5
    assert one == two


@needs_linux
def test_diag_holds_little_beyond_the_import():
    # a child's ru_maxrss counts the pages it shared with its parent before
    # exec, so a numpy-free launcher starts both children.  At k = 10^6 the
    # variance constant keeps its summands, 8 MB, and block temporaries;
    # five whole-length arrays would be 40 MB
    got = run_fresh(
        "import resource, subprocess\n"
        "def peak(*args):\n"
        "    subprocess.run([sys.executable, *args], check=True, stdout=subprocess.DEVNULL)\n"
        "    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps([peak('-c', 'import curetail.cli'),\n"
        "                  peak('-m', 'curetail.cli', 'diag', '--gamma-c', '-0.75',\n"
        "                       '--k', '1000000')]))")
    imported, diag = got
    assert diag - imported <= 16 * 1024
