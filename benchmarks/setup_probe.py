"""Time one process's first set-up, as a user meets it.

``run.py`` starts this script in a fresh interpreter for every ``setup_s``
sample.  After the imports, it times ``procedures.load_scenario()`` plus the
first ``network.bootstrap`` (``run.measure_setup``), with nothing loaded or
cached before it.  It prints one line: the calibration loop's time in ms
just before the set-up, the set-up in seconds, and the calibration loop's
time in ms just after it.
"""

from run import calibration_ms, measure_setup  # run puts src/ on the path

before_ms = calibration_ms()
_, seconds = measure_setup()
after_ms = calibration_ms()
print(before_ms, seconds, after_ms)
