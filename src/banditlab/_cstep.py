"""knn_step: the compiled twin of ``NeighborBank._select``, built with cffi."""
import hashlib
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from importlib.machinery import ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from pathlib import Path

# d2 = max(dot * -2 + norm2 + xx, 0) in numpy's order of operations, hence
# -ffp-contract=off.  Insertion with a strict < keeps each row's first k
# entries in (d2, column) order, so ties go to the lower round.
SOURCE = r"""
#include <math.h>
#include <stdint.h>
int64_t knn_step(const double *dot, int64_t width, const double *norm2,
                 const double *rewards, int64_t stride, const int64_t *rows,
                 const int64_t *sizes, const int64_t *ks, int64_t n, int strict,
                 double xx, double *sel, int64_t k_cols, double *u_max,
                 int64_t *k_used, double *best)
{
    int64_t common = 0;  /* the applied rows' one k, or -1 */
    for (int64_t j = 0; j < n; j++) {
        int64_t size = sizes[j], k = ks[j], m = 0;
        if (!strict && k > size) k = size > 1 ? size : 1;
        if (size < k) continue;
        k_used[j] = k;
        common = common == 0 || common == k ? k : -1;
        const double *d = dot + j * width;
        const double *nr = norm2 + rows[j] * stride, *rw = rewards + rows[j] * stride;
        double *out = sel + j * k_cols;  /* rewards move with their d2 */
        for (int64_t c = 0; c < size; c++) {
            double v = d[c] * -2.0 + nr[c] + xx;
            if (v < 0.0) v = 0.0;
            if (m == k && !(v < best[k - 1])) continue;
            int64_t i = m < k ? m++ : k - 1;
            for (; i > 0 && best[i - 1] > v; i--) {
                best[i] = best[i - 1];
                out[i] = out[i - 1];
            }
            best[i] = v;
            out[i] = rw[c];
        }
        u_max[j] = sqrt(best[k - 1]);
    }
    return common;
}
"""
CDEF = SOURCE[SOURCE.index("int64_t knn_step"):SOURCE.index(")") + 1] + ";"

_BUILD = """import os, sys, cffi
cdef, source, tmp, target = sys.argv[1:]
ffi = cffi.FFI()
ffi.cdef(cdef)
ffi.set_source("_knn_step", source, extra_compile_args=["-O3", "-ffp-contract=off"])
try:
    os.replace(ffi.compile(tmpdir=tmp), target)
except cffi.VerificationError as error:  # the compiler rejected the source
    open(target + ".failed", "w").write(str(error))
"""


def load(cache: Path = Path(__file__).parent / "__pycache__"):
    """The compiled step, built into ``cache`` first if need be, or None.

    Nothing is built without cffi and a C compiler.  A fresh interpreter
    builds it within 120 s, named by source hash and ABI tag, and moves it
    into place whole, so concurrent builders do not race and this one never
    imports cffi; a build removes other sources' artifacts.  Only a source
    the compiler rejects leaves a marker (its output) against retries.
    """
    key = hashlib.sha256((SOURCE + _BUILD).encode()).hexdigest()[:16]
    target = Path(cache) / f"_knn_step.{key}{sysconfig.get_config_var('EXT_SUFFIX')}"
    try:
        if not (target.exists() or target.with_name(target.name + ".failed").exists()):
            cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
            if find_spec("cffi") is None or shutil.which(cc) is None:
                return None
            target.parent.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
                subprocess.run([sys.executable, "-c", _BUILD, CDEF, SOURCE, tmp,
                                str(target)], capture_output=True, timeout=120)
            for old in target.parent.glob("_knn_step.*"):
                if not old.name.startswith(target.name):
                    old.unlink(missing_ok=True)
        loader = ExtensionFileLoader("_knn_step", str(target))
        module = module_from_spec(spec_from_loader("_knn_step", loader))
        loader.exec_module(module)
    except (ImportError, OSError, subprocess.TimeoutExpired):
        return None  # knn runs the numpy step instead
    return module
