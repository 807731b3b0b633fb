package persist

// Store files. Every file the store writes whole (MANIFEST, BOUNDS, base
// and delta checkpoints) goes through writeFile, and every numbered shard
// file (WAL segments, bases, deltas) is named, listed and retired through
// its fileKind. A new name is durable before anything can depend on it:
// writeFile fsyncs the directory after its rename. fileKind.remove does
// not fsync; each pass of removals ends with one directory fsync of its
// own (checkpointShard after its three removals, recoverShard in its final
// fsync, before any append can reuse a removed file's sequence numbers).

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// fileKind is one kind of numbered shard file: prefix, a 20-digit
// zero-padded sequence number, suffix. The fixed width makes the
// directory's lexical order the numeric one.
type fileKind struct{ prefix, suffix string }

var (
	// segFiles are WAL segments, numbered by their first record.
	segFiles = fileKind{"wal-", ".log"}
	// baseFiles and deltaFiles are checkpoints, numbered by the last
	// record they cover.
	baseFiles  = fileKind{"ckpt-", ".ckpt"}
	deltaFiles = fileKind{"delta-", ".dckpt"}
)

func (k fileKind) name(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", k.prefix, seq, k.suffix)
}

// list returns the sequence numbers of dir's files of kind k, ascending.
func (k fileKind) list(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || len(name) != len(k.prefix)+20+len(k.suffix) ||
			name[:len(k.prefix)] != k.prefix || name[len(name)-len(k.suffix):] != k.suffix {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(k.prefix):len(name)-len(k.suffix)], "%d", &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq) // ReadDir sorts by name
	}
	return seqs, nil
}

// remove deletes dir's files of kind k whose sequence number drop selects
// and returns how many went. The removals are durable once the caller
// fsyncs dir.
func (k fileKind) remove(dir string, drop func(seq uint64) bool) (int, error) {
	seqs, err := k.list(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, s := range seqs {
		if !drop(s) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, k.name(s))); err != nil && !os.IsNotExist(err) {
			return n, err
		}
		n++
	}
	return n, nil
}

// writeFile atomically replaces dir/name with the bytes write produces: it
// writes them through a buffer into a fresh temp file, flushes, fsyncs and
// closes it, renames it into place and fsyncs dir, so after a crash the
// name holds either the old file or all of the new one. On any error it
// removes the temp file and leaves dir/name as it was.
//
// The temp file gets a unique name (name.<random>.tmp), not a fixed one:
// an explicit Checkpoint call and the background checkpointer both reach
// here under ckptMu today, but a fixed temp name would make that mutual
// exclusion load-bearing for file integrity — with two writers, one
// renames the shared temp file into place while the other keeps writing
// through its still-open fd into the now-final file, defeating the
// write-then-rename atomicity. Unique names keep a lock bug from
// escalating into a corrupt durable file; Open sweeps the leftovers of
// interrupted writes (removeTemps).
func writeFile(dir, name string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(dir)
}

// removeTemps deletes the temp files interrupted writeFile calls left in
// dir. They are garbage: a temp file only counts once renamed.
func removeTemps(dir string) {
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")) // the pattern is valid
	for _, t := range tmps {
		os.Remove(t)
	}
}

// syncDir fsyncs a directory so the names created, renamed or removed in
// it are durable: fsync(2) on a file does not make its directory entry
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
