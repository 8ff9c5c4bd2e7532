"""Work counted as calls, by ``cProfile``, with no counter in the library.

``call_counts(fn, *args)`` runs ``fn(*args)`` under ``cProfile.Profile``
and returns ``(result, counts)``.  ``counts`` maps ``"<file stem>.<qualified
name>"`` of each Python function that ran, for example
``quadforms._compose``, ``quarticrings.QuarticRing.mul`` or
``fractions.Fraction.__new__``, to its number of calls; a function that did
not run reads 0.  Every call is seen, also one made inside the module that
defines the function, which a wrapper set on a module attribute misses.

A generator counts each resume as a call, so one run to its end reads one
more than the number of items it yields.

Python 3.11 or later (``co_qualname``).  The profiler takes the hook of
``sys.setprofile``, which holds one profiler at a time, so a call under
another profiler fails with a ``RuntimeError`` that says so.  The callbacks
in ``gc.callbacks`` (hypothesis registers one) are taken out for the call
and put back after it, so a collection inside the call runs none of them
and the counts name no function of theirs.  The automatic collector is off
for the call and back in its earlier state after it, so no collection
that the call's allocations set off finalizes objects made before it,
whose ``__del__`` would be counted as the call's work.
"""

import cProfile
import gc
import sys
from collections import Counter
from pathlib import Path


def call_counts(fn, *args):
    """``(fn(*args), counts)``, with the calls of each function that ran."""
    if sys.getprofile() is not None:
        raise RuntimeError("call_counts cannot run under another profiler: sys.getprofile() is %r" % (sys.getprofile(),))
    profile = cProfile.Profile()
    callbacks, enabled = gc.callbacks[:], gc.isenabled()
    gc.callbacks.clear()
    gc.disable()
    try:
        result = profile.runcall(fn, *args)
    finally:
        gc.callbacks[:0] = callbacks
        if enabled:
            gc.enable()
    counts = Counter()
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, str):  # a str names a built-in
            counts["%s.%s" % (Path(code.co_filename).stem, code.co_qualname)] += entry.callcount
    return result, counts
