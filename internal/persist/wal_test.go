package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cpma"
	"repro/internal/shard"
)

// recordCases are TestRecordRoundTrip's key batches; they also seed
// FuzzDecodeRecs.
var recordCases = [][]uint64{
	{1},
	{1, 2, 3, 1 << 40, 1<<64 - 1},
	{7, 7, 7, 9}, // coalesced merges may carry duplicates
	{},
}

// recordKinds frames keys as each record kind, in kind-byte order:
// insert, removal, and the two rebalance barriers.
func recordKinds(seq uint64, keys []uint64) []Rec {
	return []Rec{
		{Seq: seq, Keys: keys},
		{Seq: seq, Remove: true, Keys: keys},
		{Seq: seq, Gen: 3, Keys: keys},
		{Seq: seq, Remove: true, Gen: 3, Keys: keys},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i, keys := range recordCases {
		for k, want := range recordKinds(uint64(100+i), keys) {
			frame := AppendRecord(nil, want)
			if frame[recHeaderSize] != byte(recInsert+k) {
				t.Fatalf("case %d: kind byte %d, want %d", i, frame[recHeaderSize], recInsert+k)
			}
			recs, err := DecodeRecs(frame)
			if err != nil || len(recs) != 1 {
				t.Fatalf("case %d: decode: %d records, %v", i, len(recs), err)
			}
			got := recs[0]
			if got.Seq != want.Seq || got.Remove != want.Remove || got.Gen != want.Gen {
				t.Fatalf("case %d: got seq=%d remove=%v gen=%d", i, got.Seq, got.Remove, got.Gen)
			}
			if !slices.Equal(got.Keys, keys) {
				t.Fatalf("case %d: keys %v != %v", i, got.Keys, keys)
			}
		}
	}
}

func TestDecodeRecordRejectsMalformed(t *testing.T) {
	frame := AppendRecord(nil, Rec{Seq: 5, Keys: []uint64{10, 20}})
	payload := frame[recHeaderSize:] // kind, seq 5, count 2, deltas 10 10
	cases := map[string][]byte{
		"empty":          {},
		"bad-kind":       append([]byte{9}, payload[1:]...),
		"truncated":      payload[:len(payload)-1],
		"trailing-bytes": append(slices.Clone(payload), 0x01),
		"absurd-count": func() []byte {
			b := slices.Clone(payload[:2])
			return binary.AppendUvarint(b, 1<<40)
		}(),
		"zero-key":            AppendRecord(nil, Rec{Seq: 5, Keys: []uint64{0, 4}})[recHeaderSize:],
		"wrapping-delta":      AppendRecord(nil, Rec{Seq: 5, Keys: []uint64{9, 3}})[recHeaderSize:],
		"non-minimal-varint":  append([]byte{recInsert, 0x85, 0x00}, payload[2:]...),
		"barrier-without-gen": append([]byte{recMoveIn, 5, 0}, payload[2:]...),
	}
	for name, p := range cases {
		if _, err := decodeRecord(p); err == nil {
			t.Errorf("%s: decodeRecord accepted malformed payload", name)
		}
	}
}

// FuzzDecodeRecs: whatever the bytes — as given, or with every whole
// frame's CRC re-sealed so the payload checks are what must catch the
// damage — DecodeRecs returns an error, or records whose keys are nonzero
// and non-decreasing and which re-encode byte for byte to the input. It
// also covers frameAt and recordHead, the frame walker and head parser
// the shipper (ReadShippable) reads sealed frames with.
func FuzzDecodeRecs(f *testing.F) {
	for i, keys := range recordCases {
		var all []byte
		for _, r := range recordKinds(uint64(100+i), keys) {
			f.Add(AppendRecord(nil, r))
			all = AppendRecord(all, r)
		}
		f.Add(all)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealRecords(slices.Clone(data))} {
			recs, err := DecodeRecs(in)
			if err != nil {
				continue
			}
			var out []byte
			for _, r := range recs {
				for j, k := range r.Keys {
					if k == 0 || (j > 0 && k < r.Keys[j-1]) {
						t.Fatalf("record %d: key %d at %d is zero or out of order", r.Seq, k, j)
					}
				}
				out = AppendRecord(out, r)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%d records re-encode to %x, not %x", len(recs), out, in)
			}
		}
	})
}

// resealRecords rewrites the CRC of every whole frame in data, in place.
func resealRecords(data []byte) []byte {
	for off := 0; len(data)-off >= recHeaderSize; {
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		if plen > len(data)-off-recHeaderSize {
			break
		}
		end := off + recHeaderSize + plen
		binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(data[off+recHeaderSize:end], castagnoli))
		off = end
	}
	return data
}

// TestReplay checks the one replay path against record-at-a-time
// application on a sorted-slice model: skipping at or below after,
// stopping at a hole, run boundaries at kind changes and at the key cap,
// empty records, and barriers replayed as the batches they encode. Each
// case replays onto a CPMA, so merged runs carry real duplicates.
func TestReplay(t *testing.T) {
	ins := func(seq uint64, keys ...uint64) Rec { return Rec{Seq: seq, Keys: keys} }
	rem := func(seq uint64, keys ...uint64) Rec { return Rec{Seq: seq, Remove: true, Keys: keys} }
	half := func(seq, first uint64) Rec { // just over half the key cap
		keys := make([]uint64, shard.MaxCoalesceKeys/2+1)
		for i := range keys {
			keys[i] = first + uint64(i)
		}
		return ins(seq, keys...)
	}
	for _, tc := range []struct {
		name  string
		after uint64
		recs  []Rec
		last  uint64
		gap   bool
		runs  []int // records merged by each apply call
	}{
		{"nothing", 4, nil, 4, false, nil},
		{"skips at or below after", 2, []Rec{ins(1, 5), ins(2, 6), ins(3, 7, 9), rem(4, 7)}, 4, false, []int{1, 1}},
		{"one run", 0, []Rec{ins(1, 5, 9), ins(2, 3, 9), ins(3, 1)}, 3, false, []int{3}},
		{"kind changes", 0, []Rec{ins(1, 5, 6), rem(2, 5), ins(3, 5, 7), ins(4, 8), rem(5, 6, 7), rem(6, 8)}, 6, false, []int{1, 1, 2, 2}},
		{"hole in the middle", 0, []Rec{ins(1, 5), ins(2, 6), ins(4, 7), ins(5, 8)}, 2, true, []int{2}},
		{"hole first", 3, []Rec{ins(5, 1)}, 3, true, nil},
		{"repeated sequence", 0, []Rec{ins(1, 5), ins(1, 6), ins(2, 7)}, 2, false, []int{2}},
		{"empty records", 0, []Rec{ins(1, 5), ins(2), rem(3), ins(4, 6), rem(5)}, 5, false, []int{2}},
		{"barriers", 0, []Rec{ins(1, 5), {Seq: 2, Gen: 1, Keys: []uint64{7}}, rem(3, 5),
			{Seq: 4, Remove: true, Gen: 2, Keys: []uint64{7}}, rem(5, 9)}, 5, false, []int{2, 3}},
		{"runs cross the key cap", 0, []Rec{half(1, 1), half(2, 1<<40), half(3, 1<<41), half(4, 1<<42), rem(5, 1)}, 5, false, []int{2, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var model []uint64
			seq := tc.after
			for _, r := range tc.recs {
				if r.Seq <= seq {
					continue
				}
				if r.Seq != seq+1 {
					break
				}
				seq = r.Seq
				model = applyModel(model, r)
			}

			set := cpma.New(nil)
			var runs []int
			last, err := Replay(tc.after, tc.recs, func(remove bool, keys []uint64, records int) {
				if !slices.IsSorted(keys) {
					t.Fatal("apply got an unsorted run")
				}
				runs = append(runs, records)
				if remove {
					set.RemoveBatch(keys, true)
				} else {
					set.InsertBatch(keys, true)
				}
			})
			if last != tc.last || (err != nil) != tc.gap {
				t.Fatalf("Replay = %d, %v; want %d, gap %v", last, err, tc.last, tc.gap)
			}
			if !slices.Equal(runs, tc.runs) {
				t.Fatalf("runs merged %v records, want %v", runs, tc.runs)
			}
			if got := set.Keys(); !slices.Equal(got, model) {
				t.Fatalf("replay holds %d keys, record-at-a-time model %d", len(got), len(model))
			}
		})
	}
}

// applyModel applies one record to a sorted, duplicate-free key slice.
func applyModel(model []uint64, r Rec) []uint64 {
	if !r.Remove {
		model = append(model, r.Keys...)
		slices.Sort(model)
		return slices.Compact(model)
	}
	return slices.DeleteFunc(model, func(k uint64) bool {
		_, found := slices.BinarySearch(r.Keys, k)
		return found
	})
}

// scanSegment reads a segment file and scans it with scanSegmentBytes, as
// recovery does.
func scanSegment(path string, shardID int) (recs []Rec, validEnd int64, headerOK bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	recs, validEnd, headerOK = scanSegmentBytes(data, shardID)
	return recs, validEnd, headerOK, nil
}

// writeTestSegment creates a segment holding the given records and
// returns its path.
func writeTestSegment(t *testing.T, dir string, shardID int, firstSeq uint64, batches [][]uint64) string {
	t.Helper()
	path := filepath.Join(dir, segFiles.name(firstSeq))
	sg, err := createSegment(path, shardID)
	if err != nil {
		t.Fatal(err)
	}
	for i, keys := range batches {
		if err := sg.append(AppendRecord(nil, Rec{Seq: firstSeq + uint64(i), Keys: keys})); err != nil {
			t.Fatal(err)
		}
	}
	if err := sg.sync(); err != nil {
		t.Fatal(err)
	}
	if err := sg.close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScanSegmentStopsAtDamage(t *testing.T) {
	dir := t.TempDir()
	path := writeTestSegment(t, dir, 3, 1, [][]uint64{{1, 2}, {3}, {4, 5, 6}})
	recs, validEnd, headerOK, err := scanSegment(path, 3)
	if err != nil || !headerOK {
		t.Fatalf("clean scan: err=%v headerOK=%v", err, headerOK)
	}
	if len(recs) != 3 || recs[2].end != validEnd {
		t.Fatalf("clean scan: %d records, validEnd %d vs last end %d", len(recs), validEnd, recs[len(recs)-1].end)
	}

	data, _ := os.ReadFile(path)

	// Shard mismatch or mangled magic invalidates the whole file.
	if _, _, ok, _ := scanSegment(path, 4); ok {
		t.Fatal("scan accepted a segment belonging to another shard")
	}
	bad := slices.Clone(data)
	bad[0] = 'X'
	os.WriteFile(path, bad, 0o644)
	if _, _, ok, _ := scanSegment(path, 3); ok {
		t.Fatal("scan accepted a segment with bad magic")
	}

	// A flipped byte inside record 2's payload ends the valid prefix at
	// record 1's boundary; bytes past it are ignored.
	bad = slices.Clone(data)
	bad[recs[1].start+recHeaderSize] ^= 0x40
	os.WriteFile(path, bad, 0o644)
	got, end, ok, _ := scanSegment(path, 3)
	if !ok || len(got) != 1 || end != recs[0].end {
		t.Fatalf("corrupt scan: headerOK=%v records=%d end=%d (want 1 record ending %d)", ok, len(got), end, recs[0].end)
	}

	// Every byte-truncation of the file yields a clean record-boundary
	// prefix.
	for n := int64(0); n <= int64(len(data)); n++ {
		os.WriteFile(path, data[:n], 0o644)
		got, end, ok, err := scanSegment(path, 3)
		if err != nil {
			t.Fatal(err)
		}
		if n < segHeaderSize {
			if ok {
				t.Fatalf("truncation %d: header accepted", n)
			}
			continue
		}
		if !ok {
			t.Fatalf("truncation %d: header rejected", n)
		}
		want := 0
		for _, r := range recs {
			if r.end <= n {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("truncation %d: %d records, want %d", n, len(got), want)
		}
		if end > n {
			t.Fatalf("truncation %d: validEnd %d past file end", n, end)
		}
	}
}
