// Shardserver: the sharded front-end as a tiny in-memory set server,
// running the mailbox ingest pipeline. The CPMA itself is
// batch-parallel but single-writer; a ShardedSet multiplexes many
// concurrently mutating clients onto P single-writer shards, each fed by
// a bounded mailbox whose writer goroutine coalesces adjacent batches
// into one large merged apply. Writers here fire-and-forget their
// batches (InsertBatchAsync/RemoveBatchAsync) while point readers issue
// lookups against the published state and analytics readers run whole-set
// scans off Snapshot captures — frozen epoch cuts the shard writers
// publish after every state-changing drain — so the query phase runs
// concurrently with ingest instead of behind a flush barrier, never
// blocks the writers, and never observes a shard mid-apply: every scan
// sees each shard at a batch boundary of its mailbox (a frontier cut;
// a multi-shard client batch may still be partially visible across
// shards until every mailbox has drained it).
//
// With -dir the server becomes durable: batches are write-ahead logged
// per shard before applying, checkpoints are cut from the published
// snapshot handles, and a restart with the same -dir recovers the
// previous run's state (the boot line reports recovered keys and
// replayed batches). Kill it mid-run and restart to watch recovery
// truncate the torn tail.
//
// A durable server can also replicate. With -listen it serves its WAL to
// followers while running the workload; a second process started with
// -follow (and the same -shards) dials it, bootstraps from the
// checkpoint chain, replays the live record stream into a read-only
// replica, and serves point lookups and snapshot scans off it until the
// primary exits:
//
//	shardserver -dir /tmp/primary -listen 127.0.0.1:7000
//	shardserver -follow 127.0.0.1:7000 -shards 8
//
// Kill and restart the follower mid-run: the reconnect resumes from its
// replicated positions instead of re-shipping history.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

func main() {
	shards := flag.Int("shards", 8, "number of CPMA shards")
	writers := flag.Int("writers", 4, "concurrent writer clients")
	readers := flag.Int("readers", 4, "concurrent point-lookup clients")
	analysts := flag.Int("analysts", 2, "concurrent snapshot-scan clients")
	batches := flag.Int("batches", 50, "batches per writer")
	batchSize := flag.Int("batch", 10_000, "keys per batch")
	depth := flag.Int("depth", 0, "mailbox depth per shard (0 = default)")
	dir := flag.String("dir", "", "durable store directory: the server recovers its state from here on boot and survives restarts (empty = in-memory only)")
	listen := flag.String("listen", "", "serve WAL replication to followers on this address (requires -dir)")
	follow := flag.String("follow", "", "run as a read-only follower of the primary at this address (use the primary's -shards)")
	obsAddr := flag.String("obs", "", "serve observability (/metrics /statz /tracez /debug/pprof) on this address")
	obsHold := flag.Duration("obshold", 0, "keep serving -obs for this long after the workload finishes (e.g. 30s), so the final state can be scraped")
	flag.Parse()

	if *follow != "" {
		runFollower(*follow, *shards, *readers, *analysts, *obsAddr)
		return
	}

	// With -dir the server is durable: every batch is write-ahead logged
	// by the shard writers, checkpoints are cut in the background, and a
	// restart replays whatever the last run left behind. Run it twice with
	// the same -dir and watch the boot line pick up the previous run's
	// keys.
	var s *repro.ShardedSet
	var pr *repro.ReplPrimary
	var ln net.Listener
	if *listen != "" && *dir == "" {
		fmt.Fprintln(os.Stderr, "-listen requires -dir: replication ships the durable WAL")
		os.Exit(1)
	}
	if *dir != "" {
		var err error
		sopts := &repro.ShardedSetOptions{
			MailboxDepth:           *depth,
			CheckpointEveryBatches: 200,
		}
		if *listen != "" {
			s, pr, err = repro.OpenPrimary(*dir, *shards, sopts)
		} else {
			s, err = repro.OpenDurableShardedSet(*dir, *shards, sopts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "open durable store:", err)
			os.Exit(1)
		}
		boot := s.PersistStats()
		fmt.Printf("recovered %d keys from %s (%d WAL batches replayed, %d keys, %d torn bytes dropped)\n",
			boot.RecoveredKeys, *dir, boot.ReplayedBatches, boot.ReplayedKeys, boot.TornBytes)
		if *listen != "" {
			if ln, err = net.Listen("tcp", *listen); err != nil {
				fmt.Fprintln(os.Stderr, "listen:", err)
				os.Exit(1)
			}
			go repro.ServeReplication(ln, pr, nil)
			fmt.Printf("serving WAL replication on %s\n", ln.Addr())
		}
	} else {
		s = repro.NewShardedSetWith(*shards, &repro.ShardedSetOptions{MailboxDepth: *depth})
	}
	defer s.Close()

	// Opt-in observability: the set's full metric surface (and the
	// primary's shipping counters when replicating) behind one HTTP
	// endpoint. Scrapes never block the pipeline, so curl away mid-run.
	var msrv *repro.MetricsServer
	if *obsAddr != "" {
		m := repro.NewMetrics("shardserver")
		repro.Observe(s, m, "cpma")
		if pr != nil {
			pr.RegisterMetrics(m, "cpma_repl")
		}
		var err error
		if msrv, err = repro.ServeMetrics(*obsAddr, m); err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
			os.Exit(1)
		}
		msrv.AddTrace("pipeline", s.Trace())
		fmt.Printf("observability on http://%s (/metrics /statz /tracez /debug/pprof/)\n", msrv.Addr())
	}

	// Writers: each client streams its own uniform batches into the
	// mailboxes and moves on immediately; roughly one in eight batches is
	// retracted again to exercise deletes. Per-client enqueue order is
	// preserved shard by shard, so each retraction lands after its insert.
	var enqueued, retracted atomic.Int64
	var writerWG sync.WaitGroup
	start := time.Now()
	for w := 0; w < *writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			r := repro.NewRNG(uint64(w) + 1)
			for i := 0; i < *batches; i++ {
				batch := repro.UniformKeys(r, *batchSize, 40)
				s.InsertBatchAsync(batch, false)
				enqueued.Add(int64(len(batch)))
				if i%8 == 7 {
					s.RemoveBatchAsync(batch[:len(batch)/2], false)
					retracted.Add(int64(len(batch) / 2))
				}
			}
		}(w)
	}

	// Point readers: lookups against the writer-published handles until
	// the writers are done enqueueing.
	var lookups atomic.Int64
	var done atomic.Bool
	var readerWG sync.WaitGroup
	for g := 0; g < *readers; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			r := repro.NewRNG(uint64(1000 + g))
			for !done.Load() {
				s.Has(1 + r.Uint64()%(1<<40))
				lookups.Add(1)
			}
		}(g)
	}

	// Analysts: the query phase, running concurrently with ingest. Each
	// analyst captures a frozen Snapshot (a lock-free handle grab off the
	// writer-published epoch cuts) and scans it — whole-set Len plus a
	// range sum — with no flush barrier and no locks, so scans
	// neither wait for the mailboxes to drain nor stall the writers.
	var scans, scannedKeys atomic.Int64
	for g := 0; g < *analysts; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			r := repro.NewRNG(uint64(2000 + g))
			for !done.Load() {
				snap := s.Snapshot()
				lo := r.Uint64() % (1 << 40)
				_, cnt := snap.RangeSum(lo, lo+1<<34)
				scannedKeys.Add(int64(snap.Len()) + int64(cnt))
				scans.Add(1)
			}
		}(g)
	}

	writerWG.Wait()
	enqueueDone := time.Since(start)
	// The final summary still wants everything enqueued: one Flush, then a
	// last Snapshot that is guaranteed to cover it (read-your-flushes).
	s.Flush()
	elapsed := time.Since(start)
	done.Store(true)
	readerWG.Wait()
	final := s.Snapshot()

	updates := enqueued.Load() + retracted.Load()
	st := s.IngestStats()
	sst := s.SnapshotStats()
	fmt.Printf("%d shards (mailbox pipeline), %d writers, %d readers, %d analysts, %.2fs (+%.0fms flush)\n",
		*shards, *writers, *readers, *analysts, elapsed.Seconds(), (elapsed-enqueueDone).Seconds()*1000)
	fmt.Printf("enqueued %d inserts and %d removes (%.2e updates/s) alongside %d lookups\n",
		enqueued.Load(), retracted.Load(), float64(updates)/elapsed.Seconds(), lookups.Load())
	fmt.Printf("coalescing: %d sub-batches (mean %.0f keys) applied as %d merges (mean %.0f keys, %.1fx)\n",
		st.EnqueuedBatches, st.MeanEnqueuedBatch(), st.AppliedBatches, st.MeanAppliedBatch(),
		st.MeanAppliedBatch()/st.MeanEnqueuedBatch())
	fmt.Printf("snapshots: %d scans over %d captures during ingest (%.2e keys scanned), %d epochs published as %d clones (%.1f MB)\n",
		scans.Load(), sst.Captures, float64(scannedKeys.Load()), sst.Epochs, sst.Publishes,
		float64(sst.CloneBytes)/(1<<20))
	fmt.Printf("final set: %d keys in %.1f MB (%.2f bytes/key)\n",
		final.Len(), float64(final.SizeBytes())/(1<<20), float64(final.SizeBytes())/float64(final.Len()))

	// Durable runs: cut a final checkpoint so the next boot recovers from
	// checkpoints instead of replaying the whole log, and show what durability
	// cost this session.
	if s.Durable() {
		if err := s.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "final checkpoint:", err)
			os.Exit(1)
		}
		pst := s.PersistStats()
		fmt.Printf("durability: %d WAL batches (%.1f MB, %d fsyncs), %d checkpoints (%.1f MB), %d segments truncated\n",
			pst.AppendedBatches, float64(pst.AppendedBytes)/(1<<20), pst.Fsyncs,
			pst.Checkpoints, float64(pst.CheckpointBytes)/(1<<20), pst.TruncatedSegments)
	}

	// Replicating primaries: give live followers a moment to drain the
	// tail, report the shipping totals, and stop accepting.
	if pr != nil {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			rs := pr.ReplStats()
			if rs.Links == 0 || rs.LagRecords == 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		rs := pr.ReplStats()
		fmt.Printf("replication: %d live links, shipped %d records / %.2e keys, %d bootstraps, %d bounds updates, final lag %d records\n",
			rs.Links, rs.ShippedRecords, float64(rs.ShippedKeys), rs.Bootstraps, rs.BoundsUpdates, rs.LagRecords)
		ln.Close()
	}

	// The frozen view stays globally ordered across shards.
	if lo, ok := final.Min(); ok {
		hi, _ := final.Max()
		_, cnt := final.RangeSum(lo, lo+(hi-lo)/1000)
		fmt.Printf("keys span [%d, %d]; first 0.1%% of the span holds %d keys\n", lo, hi, cnt)
	}

	// Hold the observability endpoint open if asked, so the finished run's
	// totals (and pprof) can still be scraped; then shut it down.
	if msrv != nil {
		if *obsHold > 0 {
			fmt.Printf("holding observability endpoint for %s\n", *obsHold)
			time.Sleep(*obsHold)
		}
		msrv.Close()
	}
}

// runFollower is the -follow mode: a read-only replica that dials the
// primary, bootstraps from its checkpoint chain, replays the live record
// stream, and serves point lookups and snapshot scans until the primary
// goes away (client mutations on the replica panic by contract).
func runFollower(addr string, shards, readers, analysts int, obsAddr string) {
	f := repro.OpenFollower(shards, nil)
	c, err := repro.DialPrimary(addr, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dial primary:", err)
		os.Exit(1)
	}
	fmt.Printf("following %s with %d shards\n", addr, shards)
	set := f.Set()

	if obsAddr != "" {
		m := repro.NewMetrics("shardserver-follower")
		repro.Observe(set, m, "cpma")
		f.RegisterMetrics(m, "cpma_follower")
		msrv, err := repro.ServeMetrics(obsAddr, m)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
			os.Exit(1)
		}
		defer msrv.Close()
		msrv.AddTrace("replica", set.Trace())
		fmt.Printf("observability on http://%s\n", msrv.Addr())
	}

	var lookups, scans atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := repro.NewRNG(uint64(3000 + g))
			for !done.Load() {
				set.Has(1 + r.Uint64()%(1<<40))
				lookups.Add(1)
			}
		}(g)
	}
	for g := 0; g < analysts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := repro.NewRNG(uint64(4000 + g))
			for !done.Load() {
				snap := f.Snapshot()
				lo := r.Uint64() % (1 << 40)
				snap.RangeSum(lo, lo+1<<34)
				scans.Add(1)
			}
		}(g)
	}

	start := time.Now()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
serve:
	for {
		select {
		case <-c.Done():
			break serve
		case <-tick.C:
			st := f.Stats()
			fmt.Printf("  applied %d records / %.2e keys (%d bootstraps); serving %d keys\n",
				st.AppliedRecords, float64(st.AppliedKeys), st.Bootstraps, set.Len())
		}
	}
	done.Store(true)
	wg.Wait()
	if err := c.Err(); err != nil {
		fmt.Printf("stream ended: %v\n", err)
	}
	c.Close()

	st := f.Stats()
	elapsed := time.Since(start)
	fmt.Printf("follower final: %d keys after %d records / %.2e keys replayed (%d bootstraps); served %.2e lookups and %d scans in %.2fs\n",
		set.Len(), st.AppliedRecords, float64(st.AppliedKeys), st.Bootstraps,
		float64(lookups.Load()), scans.Load(), elapsed.Seconds())
}
