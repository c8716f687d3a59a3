PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src

.PHONY: test cov fuzz-smoke racecheck fuzz-full trace-smoke grow-smoke stream-smoke serve-smoke cluster-smoke compact-smoke bench-compiled

# tier-1: fast suite, excludes `slow` and `fuzz` via pyproject addopts
test:
	$(PYTHON) -m pytest

# line-coverage floor for repro.simt + repro.core (stdlib tracer;
# `pip install -e .[cov]` enables the faster pytest-cov path instead)
cov:
	$(PYTHON) tools/coverage_floor.py --list

# 60-second differential fuzz pass plus the fuzz-marked test battery
fuzz-smoke:
	$(PYTHON) -m repro fuzz --budget 60s --corpus tests/fuzz/corpus.json
	$(PYTHON) -m pytest tests/fuzz -m fuzz

# observability smoke: trace a small insert+query cascade, validate the
# emitted Perfetto trace_event JSON (repro trace exits 1 on problems)
trace-smoke:
	$(PYTHON) -m repro trace --smoke --out /tmp/repro.smoke.trace.json

# lifecycle smoke: 4x-capacity ingest through every table flavour with
# dynamic growth, traced + Perfetto-validated (repro grow exits 1 on
# any InsertionError, lost pair, or missing grow/rehash span)
grow-smoke:
	$(PYTHON) -m repro grow --smoke --out /tmp/repro.grow.trace.json

# pipeline smoke: depth>=2 streaming vs depth=1 bit-identity, staging
# backpressure (pipeline.stall spans), measured overlap win under
# modelled pacing, Perfetto-validated (repro stream exits 1 on any miss)
stream-smoke:
	$(PYTHON) -m repro stream --smoke --out /tmp/repro.stream.trace.json

# cluster smoke: one-node-cluster bit-identity against the flat node
# (outputs AND charged bytes), NIC charging on a 2x2 cluster, and the
# traced transpose.intra/inter levels, Perfetto-validated (repro
# cluster exits 1 on any miss)
cluster-smoke:
	$(PYTHON) -m repro cluster --smoke --out /tmp/repro.cluster.trace.json

# compact-layout smoke: cross-layout bit-identity under growth +
# tombstone churn, strictly narrower modelled VRAM/exchange charges on
# quotienting tables, snapshot round-trip, and perf-model monotonicity
# (repro compact exits 1 on any miss)
compact-smoke:
	$(PYTHON) -m repro compact --smoke

# serving smoke: boot a live KVServer, drive insert/query/erase through
# a real client, check cache-coherence across an overwrite and the
# hit/miss counters (repro serve exits 1 on any gate miss)
serve-smoke:
	$(PYTHON) -m repro serve --smoke

# compiled-backend smoke: the serial wallclock suite through
# kernels="compiled" at tiny n (auto-falls back to "fast" when the C
# kernel library cannot be built — the printed rows record the backend
# that ran)
bench-compiled:
	$(PYTHON) -m repro bench --smoke --suite wallclock --engines serial --kernels compiled

# racecheck certification: clean tree silent, every mutant flagged
racecheck:
	$(PYTHON) -m repro racecheck

# longer fuzz campaign for local soak testing
fuzz-full:
	$(PYTHON) -m repro fuzz --budget 10m --corpus tests/fuzz/corpus.json
