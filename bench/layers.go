package main

// reportShardLayer reports the sharded pipeline's per-layer metrics from
// the traced pass: the benchmark's spans around enqueue, Flush and
// Snapshot, and a scrape of the set's registry (prefix p) covering the
// pass. cpma.apply_busy_s is derived: drain time minus WAL append and
// publish time, the rest of a drain being the CPMA apply.
func reportShardLayer(r *runner, tr *tracer, reg regSnap, p string) {
	enq := tr.durations("shard.enqueue")
	r.set("shard.enqueue_busy_s", tr.busy("shard.enqueue").Seconds(), len(enq))
	r.setPct("shard.enqueue_us_p50", scaled(enq, 1e3), 0.5)
	r.setPct("shard.flush_wait_ms_p50", tr.durations("shard.flush"), 0.5)
	r.setPct("shard.capture_us_p50", scaled(tr.durations("shard.capture"), 1e3), 0.5)

	res := int(reg[p+"_mailbox_residency_ns"].count)
	r.set("shard.mailbox_residency_ms_p50", reg.quantile(p+"_mailbox_residency_ns", 0.50)/1e6, res)
	r.set("shard.mailbox_residency_ms_p99", reg.quantile(p+"_mailbox_residency_ns", 0.99)/1e6, res)
	drains := int(reg[p+"_drain_ns"].count)
	r.set("shard.drain_busy_s", reg.sumSeconds(p+"_drain_ns"), drains)
	r.set("shard.drains", float64(drains), drains)
	r.set("shard.coalesce_keys_mean", reg.mean(p+"_coalesce_keys"), int(reg[p+"_coalesce_keys"].count))
	pubs := int(reg[p+"_publish_ns"].count)
	r.set("shard.publish_busy_s", reg.sumSeconds(p+"_publish_ns"), pubs)
	r.set("shard.publishes", float64(pubs), pubs)
	applied := reg[p+"_ingest_applied_keys"].value
	r.set("shard.clone_bytes_per_key", ratio(reg[p+"_snapshot_clone_bytes"].value, applied), int(applied))

	apply := reg.sumSeconds(p+"_drain_ns") - reg.sumSeconds(p+"_wal_append_ns") - reg.sumSeconds(p+"_publish_ns")
	r.set("cpma.apply_busy_s", apply, drains)
}
