package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/perfmodel"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current model")

// modelTables renders each model-only experiment exactly as cmd/bench -exp
// prints it. The measured experiments (modelcheck, obs) are not here:
// their numbers come from live runs.
var modelTables = []struct {
	name   string
	tables func(perfmodel.Machine) []*Table
}{
	{"fig2", Fig2},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"table1", func(m perfmodel.Machine) []*Table { return []*Table{TableI(m)} }},
	{"table2", func(m perfmodel.Machine) []*Table { return []*Table{TableII(m)} }},
	{"table3", func(m perfmodel.Machine) []*Table { return []*Table{TableIII(m)} }},
	{"ablation", func(m perfmodel.Machine) []*Table { return []*Table{AblationOverlap(m)} }},
	{"memory", func(m perfmodel.Machine) []*Table { return []*Table{MemoryTable(m)} }},
}

// TestModelTablesGolden holds the model-only paper tables byte-identical to
// testdata/<exp>.golden. Regenerate with go test ./internal/bench -run
// Golden -update, only for a change meant to alter the model.
func TestModelTablesGolden(t *testing.T) {
	m := perfmodel.Lassen()
	for _, e := range modelTables {
		var got bytes.Buffer
		for _, tbl := range e.tables(m) {
			tbl.Write(&got)
		}
		path := filepath.Join("testdata", e.name+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: rendered tables differ from %s:\n%s", e.name, path, got.String())
		}
	}
}
