package paperrepro

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from RunAll")

// TestFiguresGolden pins the whole regenerated artifact — every figure's
// table, credential, trace and lint report — byte for byte. Run with
// -update after a deliberate change to a figure, and review the diff.
func TestFiguresGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("figures differ from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is deliberate)", golden, i+1, g, e)
		}
	}
	t.Fatalf("figures differ from %s", golden)
}
