package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun: the pure-model experiments print their headers and data files;
// a name that is not an experiment — the sweeps benchmark/ superseded among
// them — fails before any work, so before the -csv directory exists, and
// the error lists what -exp accepts.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		exp    string
		header string // on success: the first line of the output
		csv    string // on success: the data file written, if any
	}{
		{exp: "table4", header: "Table 4: theoretical per-iteration overhead (d=1, cd=12, c0=nnz/n=4.8)"},
		{exp: "table5", header: "Table 5: optimal (cd, d) for basic online ABFT (Stampede profile, I=2000, cd<=1000)", csv: "table5.csv"},
		{exp: "fig5", header: "Figure 5(a) PCG: expected execution time E(cd,d), lambda=1.0, I=2000 (Stampede profile)", csv: "figure5_pcg.csv"},
		{exp: "par"}, {exp: "serve"}, {exp: "shard"}, {exp: "kernels"}, {exp: ""}, {exp: "bogus"},
	} {
		t.Run("exp="+tc.exp, func(t *testing.T) {
			var out strings.Builder
			dir := filepath.Join(t.TempDir(), "csv")
			err := run(tc.exp, config{out: &out, n: 400, blocks: 4, repeats: 1, seed: 20160531, csvDir: dir})
			if tc.header == "" {
				if err == nil || !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), "table3|") {
					t.Fatalf("err = %v, want unknown experiment and the accepted names", err)
				}
				if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
					t.Fatalf("-csv directory was created before the name was checked (stat: %v)", statErr)
				}
				if out.Len() != 0 {
					t.Fatalf("output before the name was checked: %q", out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if first, _, _ := strings.Cut(out.String(), "\n"); first != tc.header {
				t.Errorf("first line %q, want %q", first, tc.header)
			}
			if !strings.HasSuffix(out.String(), "\n\n") {
				t.Errorf("no blank line after the experiment")
			}
			if tc.csv != "" {
				if st, err := os.Stat(filepath.Join(dir, tc.csv)); err != nil || st.Size() == 0 {
					t.Errorf("%s: %v", tc.csv, err)
				}
			}
		})
	}
}

// TestParseFlags: the six flags parse, and the removed trajectory flags are
// refused.
func TestParseFlags(t *testing.T) {
	exp, c, err := parseFlags([]string{"-exp", "fig6", "-n", "900", "-blocks", "4", "-repeats", "5", "-seed", "7", "-csv", "d"}, io.Discard)
	if err != nil || exp != "fig6" || c.n != 900 || c.blocks != 4 || c.repeats != 5 || c.seed != 7 || c.csvDir != "d" {
		t.Fatalf("parsed %q %+v, %v", exp, c, err)
	}
	for _, args := range [][]string{
		{"-bench-json", "x.json"}, {"-compare", "x.json"}, {"-smoke"},
		{"-suite", "s"}, {"-commit", "c"}, {"-message", "m"},
	} {
		if _, _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted a removed flag", args)
		}
	}
}
