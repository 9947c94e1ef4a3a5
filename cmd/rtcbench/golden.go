package main

import (
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
)

// goldenFile holds the digests the unmodified simulator produced, one
// line per (workload, seed, kind, size): "batch" digests a whole batch,
// "sample" the untraced summaries of one traced round's sample.
//
//go:embed testdata/goldens.txt
var goldenFile string

// goldenPath is where -update-goldens writes, relative to the repository
// root.
const goldenPath = "cmd/rtcbench/testdata/goldens.txt"

// snapshotPath is the committed output of `benchdrop -exp all`, which the
// figure suite must reproduce byte for byte at seed 1.
const snapshotPath = "docs/results_snapshot.txt"

// goldens maps a golden key to its digest.
type goldens map[string]string

func goldenKey(name string, seed int64, kind string, size int) string {
	return fmt.Sprintf("%s %d %s %d", name, seed, kind, size)
}

// lookup returns the golden digest, or "" when none is known.
func (g goldens) lookup(name string, seed int64, kind string, size int) string {
	return g[goldenKey(name, seed, kind, size)]
}

// loadGoldens parses the embedded digests and adds the figure suite's
// seed-1 digest from the committed snapshot under root.
func loadGoldens(root string) (goldens, error) {
	g := goldens{}
	for i, line := range strings.Split(goldenFile, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 5 {
			return nil, fmt.Errorf("%s:%d: want 5 fields, got %d", goldenPath, i+1, len(f))
		}
		seed, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", goldenPath, i+1, err)
		}
		size, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", goldenPath, i+1, err)
		}
		g[goldenKey(f[0], seed, f[2], size)] = f[4]
	}
	snap, err := os.ReadFile(filepath.Join(root, snapshotPath))
	if err != nil {
		return nil, fmt.Errorf("figure-suite golden: %w", err)
	}
	g[goldenKey("figure-suite", 1, "batch", len(suiteIDs()))] = bytesDigest(snap)
	return g, nil
}

// updateGoldens recomputes the batch and sample digests of every workload
// for seeds 0..n and writes them under root.
func updateGoldens(root string, n int) error {
	var lines []string
	for _, w := range workloads() {
		for seed := int64(0); seed <= int64(n); seed++ {
			in, err := w.build(seed)
			if err != nil {
				return err
			}
			out, err := in.batch(hooks{})
			if err != nil {
				return err
			}
			lines = append(lines, fmt.Sprintf("%s %s", goldenKey(w.name, seed, "batch", in.batchSize), out.digest))
			d, err := sampleDigest(in)
			if err != nil {
				return err
			}
			lines = append(lines, fmt.Sprintf("%s %s", goldenKey(w.name, seed, "sample", in.sample), d))
			fmt.Fprintf(os.Stderr, "goldens: %s seed %d\n", w.name, seed)
		}
	}
	sort.Strings(lines)
	text := "# workload seed kind size sha256 (regenerate with -update-goldens)\n" + strings.Join(lines, "\n") + "\n"
	return os.WriteFile(filepath.Join(root, goldenPath), []byte(text), 0o644)
}

// sampleDigest runs the traced rounds' sample untraced and hashes it the
// way tracedRound does.
func sampleDigest(in *inputs) (string, error) {
	sched := simtime.NewScheduler()
	var all []session.Summary
	for u := 0; u < in.sample; u++ {
		spec, err := in.unit(u)
		if err != nil {
			return "", err
		}
		all = append(all, runPlain(sched, spec, nil)...)
	}
	return summariesDigest(all), nil
}
