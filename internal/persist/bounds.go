package persist

// The durable boundary table. Rebalancing makes RangePartition's span
// boundaries dynamic, so the store must remember them: recovery's span
// enforcement and the restarted set's router both need the table the
// journaled history was routed against. The table lives in its own
// generation-stamped sidecar file (dir/BOUNDS) rather than the MANIFEST —
// the manifest records immutable creation-time geometry, the boundary
// table is live state rewritten (atomically, via writeFile: temp file,
// data fsync, rename, dir fsync) in the middle of every rebalance barrier.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

const boundsName = "BOUNDS"

// boundsFile is the on-disk boundary table: the interior boundaries
// (shards-1 ascending keys) as of router generation Gen.
type boundsFile struct {
	Version int      `json:"version"`
	Gen     uint64   `json:"gen"`
	Bounds  []uint64 `json:"bounds"`
}

// writeBounds atomically replaces dir/BOUNDS with the given table.
func writeBounds(dir string, gen uint64, bounds []uint64) error {
	blob, err := json.Marshal(boundsFile{Version: 1, Gen: gen, Bounds: bounds})
	if err != nil {
		return err
	}
	return writeFile(dir, boundsName, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

// loadBounds reads dir/BOUNDS. ok is false when the file does not exist
// (a store from before rebalancing, or one that never rebalanced).
func loadBounds(dir string, shards int) (bounds []uint64, gen uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, boundsName))
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	var bf boundsFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, 0, false, fmt.Errorf("persist: corrupt boundary table %s/%s: %w", dir, boundsName, err)
	}
	if bf.Version != 1 {
		return nil, 0, false, fmt.Errorf("persist: unsupported boundary-table version %d", bf.Version)
	}
	if len(bf.Bounds) != shards-1 {
		return nil, 0, false, fmt.Errorf("persist: boundary table has %d entries for %d shards", len(bf.Bounds), shards)
	}
	for i := 1; i < len(bf.Bounds); i++ {
		if bf.Bounds[i] < bf.Bounds[i-1] {
			return nil, 0, false, fmt.Errorf("persist: boundary table not sorted at %d", i)
		}
	}
	return bf.Bounds, bf.Gen, true, nil
}
