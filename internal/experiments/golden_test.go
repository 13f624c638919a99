package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/suite_table_digests.txt from the current code")

const goldenDigests = "testdata/suite_table_digests.txt"

// TestSuiteTablesGolden pins every committed table of one SmallScale All()
// pass by the SHA-256 of its rendered text — the same digest perfbench
// reports as table_digests. A speed-only change must leave every line of
// the golden file as it is; a change that means to move a number
// regenerates the file with -update-golden and says why in CHANGES.md.
func TestSuiteTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full SmallScale suite")
	}
	s := DefaultSuite()
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	names := s.generators()
	got := make([]string, len(tables))
	for i, tb := range tables {
		sum := sha256.Sum256([]byte(tb.String()))
		got[i] = fmt.Sprintf("%s %s", hex.EncodeToString(sum[:]), names[i].name)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenDigests), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigests, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("suite rendered %d tables, golden file lists %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("table %q changed:\n got  %s\n want %s", names[i].name, got[i], want[i])
		}
	}
}
