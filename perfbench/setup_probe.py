"""Print the set-up time of soilspec in this fresh interpreter.

Set-up is ``import soilspec`` + ``load_bundled_3j()`` +
``reference_spectrum()``, in seconds at nominal speed (see speed.py).
"""

from time import perf_counter

from speed import SpeedSampler

with SpeedSampler() as speed:
    t0 = perf_counter()
    import soilspec

    soilspec.load_bundled_3j()
    soilspec.reference_spectrum()
    elapsed = perf_counter() - t0
print(speed.scale(elapsed))
