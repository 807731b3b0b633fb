package persist

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/shard"
)

// tempsIn returns the temp files writeFile could have left in dir.
func tempsIn(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "F")

	boom := errors.New("boom")
	err := writeFile(dir, "F", func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing callback: err %v, want %v", err, boom)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("a failed write created the target")
	}
	if tmps := tempsIn(t, dir); len(tmps) != 0 {
		t.Fatalf("a failed write left temps %v", tmps)
	}

	if err := os.WriteFile(path, []byte("the old contents, longer than the new"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("new "), 1<<15) // past the writer's buffer
	if err := writeFile(dir, "F", func(w io.Writer) error {
		_, err := w.Write(want)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replaced file holds %d bytes (err %v), want exactly the %d new ones", len(got), err, len(want))
	}
	if tmps := tempsIn(t, dir); len(tmps) != 0 {
		t.Fatalf("a successful write left temps %v", tmps)
	}
}

// TestOpenSweepsRootTemps: interrupted MANIFEST and BOUNDS writes leave
// temp files in the store root, which Open removes as recovery does in
// shard directories.
func TestOpenSweepsRootTemps(t *testing.T) {
	dir := t.TempDir()
	opt := shard.Options{Partition: shard.RangePartition, KeyBits: 16, SyncEvery: 1}
	s, _ := openSet(t, dir, 2, opt)
	s.InsertBatch([]uint64{1, 2, 3}, true)
	s.Close()
	for _, name := range []string{"MANIFEST.123.tmp", "BOUNDS.456.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, _ := openSet(t, dir, 2, opt)
	defer s2.Close()
	if got := s2.Keys(); len(got) != 3 {
		t.Fatalf("reopened %v, want [1 2 3]", got)
	}
	if tmps := tempsIn(t, dir); len(tmps) != 0 {
		t.Fatalf("Open left temps %v", tmps)
	}
}

// TestOneFileWriter reads the package's non-test sources: writeFile is the
// only caller of os.CreateTemp and os.Rename, and nothing calls
// os.WriteFile, whose data is never fsynced.
func TestOneFileWriter(t *testing.T) {
	srcs, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, src, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "os" {
					return true
				}
				switch name := sel.Sel.Name; {
				case name == "WriteFile",
					(name == "CreateTemp" || name == "Rename") && fn != "writeFile":
					t.Errorf("%s: %s calls os.%s; files are written through writeFile", fset.Position(call.Pos()), fn, name)
				}
				return true
			})
		}
	}
}
