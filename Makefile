# Convenience targets for the Misam reproduction.
#
# MISAM_THREADS=N caps the oracle's parallel fan-out (corpus labeling,
# experiment sweeps); default is all cores and output is byte-identical
# at any value, e.g. `MISAM_THREADS=4 make reproduce`.

.PHONY: test bench bench-sim bench-gen bench-serve bench-train bench-ingest bench-kernels bench-learn bench-surrogate serve-smoke learn-smoke surrogate-smoke reproduce reproduce-paper examples doc clean

test:
	cargo test --workspace

# Build every bench binary; run one with its `bench-*` target.
bench:
	cargo build --release -p misam-bench --bins

# Profile layer microbenchmark: walk vs profiled simulation throughput,
# with a byte-identity gate on the labels. Writes BENCH_sim.json.
bench-sim:
	cargo run --release -p misam-bench --bin bench_sim

# Two-stage generator microbenchmark: structure stage vs full
# materialization per family. Writes BENCH_gen.json.
bench-gen:
	cargo run --release -p misam-bench --bin bench_gen

# Training-kernel microbenchmark: seed per-node-sort induction vs the
# sort-once columnar fit, the seed boxed walk vs the node arena's
# frontier and per-row walks, serial vs parallel forest fit; writes
# BENCH_train.json.
bench-train:
	cargo run --release -p misam-bench --bin bench_train

# Lane-kernel microbenchmark: scalar reference vs vectorized form for
# the profile fragment fold, frontier-walk partition, SpGEMM/SpMM, and
# uniform schedule fold — bit-identity checked before
# every timing, with >= 2x gates on the fold and the walk. Writes
# BENCH_kernels.json.
bench-kernels:
	cargo run --release -p misam-bench --bin bench_kernels

# Out-of-core storage benchmark: streams a .mtx bigger than the
# resident-entry budget into an MSAB slab, profiles it with the chunked
# fold, labels it through the oracle, and asserts peak RSS stays bounded
# by the budget. Writes BENCH_ingest.json.
bench-ingest:
	cargo run --release -p misam-bench --bin bench_ingest

# Serving load benchmark: blocking vs epoll engine throughput/latency
# percentiles for batched and single predicts over TCP, a 2000-idle-
# connection flood, open-loop pacing, and an overload scenario proving
# the admission queue stays bounded. Every entry records host_cpus and
# the reactor-shard/worker configuration. Writes BENCH_serve.json.
bench-serve:
	cargo run --release -p misam-bench --bin bench_serve

# End-to-end serving smoke: train a bundle, serve it on the event
# engine with two reactor shards, run one-shot and load-generator
# requests (open-loop pacing + an idle-connection flood) through the
# CLI client, shut down gracefully.
serve-smoke:
	cargo run --release -p misam-cli --bin misam -- train --out /tmp/misam_smoke_models.json --samples 120 --latency 150 --seed 5
	cargo run --release -p misam-cli --bin misam -- serve --models /tmp/misam_smoke_models.json --addr 127.0.0.1:7171 --mode event --reactors 2 & \
	sleep 2 && \
	cargo run --release -p misam-cli --bin misam -- client --addr 127.0.0.1:7171 --op predict-gen --kind power-law --rows 512 --density 0.02 && \
	cargo run --release -p misam-cli --bin misam -- client --addr 127.0.0.1:7171 --op load --connections 2 --requests 50 --batch 8 && \
	cargo run --release -p misam-cli --bin misam -- client --addr 127.0.0.1:7171 --op load --connections 2 --requests 40 --batch 1 --open-loop 400 --idle-conns 64 && \
	cargo run --release -p misam-cli --bin misam -- client --addr 127.0.0.1:7171 --op stats && \
	cargo run --release -p misam-cli --bin misam -- client --addr 127.0.0.1:7171 --op shutdown && \
	wait

# Online-learning drift benchmark: serve a bundle fit to one traffic
# family, shift the generator distribution mid-run, and record the
# rolling selector-vs-oracle agreement collapsing and recovering after
# the background learner hot-publishes a retrain — plus a tap-on vs
# tap-off hot-path comparison. Writes BENCH_learn.json.
bench-learn:
	cargo run --release -p misam-bench --bin bench_learn

# Tiered surrogate oracle benchmark: trains + calibrates a bundle,
# then labels a disjoint eval stream through the gated tier, the
# ungated surrogate, and a fresh cycle-sim oracle. Gates: ungated
# surrogate labeling >= 10x the sim, gated end-to-end selection
# agreement >= 99%. Writes BENCH_surrogate.json.
bench-surrogate:
	cargo run --release -p misam-bench --bin bench_surrogate

# Surrogate-tier smoke: train + calibrate a small bundle, label a
# corpus through the gated tier (the CLI prints and the command
# asserts the surrogate/fallback split), and check the no-bundle
# error path.
surrogate-smoke:
	cargo run --release -p misam-cli --bin misam -- train-surrogate --out /tmp/misam_surrogate.json --samples 300 --seed 5
	cargo run --release -p misam-cli --bin misam -- dataset --out /tmp/misam_surrogate_corpus.json --format json --samples 40 --seed 5 --oracle tiered --surrogate /tmp/misam_surrogate.json
	! cargo run --release -p misam-cli --bin misam -- dataset --out /tmp/misam_surrogate_bad.json --samples 5 --oracle surrogate 2>/dev/null

# End-to-end online-learning smoke: serve with the learning loop on
# (sample everything, fast cadence, forced full refits), drive
# generator traffic whose family flips mid-run, then assert via the
# drift endpoint that at least one retrain was hot-published.
learn-smoke:
	cargo run --release -p misam-cli --bin misam -- train --out /tmp/misam_learn_models.json --samples 120 --latency 150 --seed 5
	cargo run --release -p misam-cli --bin misam -- serve --models /tmp/misam_learn_models.json --addr 127.0.0.1:7172 --mode event --reactors 2 \
		--learn on --learn-sample 1 --learn-cadence-ms 200 --learn-min-window 24 --learn-min-new 8 --learn-drift -1 & \
	sleep 2 && \
	cargo run --release -p misam-cli --bin misam -- client --addr 127.0.0.1:7172 --op load --connections 2 --requests 16 \
		--gen-kind uniform --gen-rows 96 --gen-density 0.05 --gen-dense-cols 32 --shift-at 16 --gen-kind-after banded && \
	sleep 3 && \
	cargo run --release -p misam-cli --bin misam -- client --addr 127.0.0.1:7172 --op drift --expect-retrain true && \
	cargo run --release -p misam-cli --bin misam -- client --addr 127.0.0.1:7172 --op shutdown && \
	wait

# Regenerate every table/figure into results/ (minutes).
reproduce:
	MISAM_SCALE=mid cargo run --release -p misam-bench --bin reproduce_all

# The published corpus sizes (substantially longer).
reproduce-paper:
	MISAM_SCALE=paper cargo run --release -p misam-bench --bin reproduce_all

examples:
	cargo run --release --example quickstart
	cargo run --release --example graph_analytics
	cargo run --release --example pruned_dnn
	cargo run --release --example streaming_reconfig
	cargo run --release --example train_selector
	cargo run --release --example multi_objective
	cargo run --release --example device_routing

doc:
	cargo doc --no-deps --workspace

clean:
	cargo clean
	rm -rf results/*.txt
