package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/restricteduse/tradeoffs/internal/bench"
)

func TestEncodeRoundTripAndCheck(t *testing.T) {
	rep, err := bench.RunThroughput(bench.ThroughputConfig{Procs: 2, OpsPerProc: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, pretty := range []bool{false, true} {
		enc, err := encode(rep, pretty)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "report.json")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkFile(path); err != nil {
			t.Fatalf("checkFile rejected a fresh report (pretty=%v): %v", pretty, err)
		}
		var back bench.Report
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		if len(back.Results) != len(rep.Results) {
			t.Fatalf("round trip lost results: %d vs %d", len(back.Results), len(rep.Results))
		}
	}
}

func TestCheckFileAcceptsLegacyV1(t *testing.T) {
	// A pre-v2 artifact (no allocs/bytes/wall-clock columns) must still
	// read cleanly: old BENCH_PR2.json baselines stay diffable.
	v1 := `{"schema":"tradeoffs/bench/v1","seed":1,"procs":2,"ops_per_proc":10,"gomaxprocs":2,"go_version":"x","results":[{"name":"counter/cas/increment","procs":2,"ops":20,"ns_per_op":10,"steps_per_op":3,"cas_attempts":5,"cas_failures":1,"cas_failure_rate":0.2}]}`
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkFile(path); err != nil {
		t.Fatalf("checkFile rejected a valid v1 report: %v", err)
	}
}

func TestDiffReports(t *testing.T) {
	base, err := bench.RunExplore(bench.ExploreConfig{Procs: 2, Steps: 2, Workers: []int{1}, Budget: 10000})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := bench.RunExplore(bench.ExploreConfig{Procs: 2, Steps: 2, Workers: []int{2}, Budget: 10000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	diffReports(&buf, base, cur)
	out := buf.String()
	for _, want := range []string{
		"explore/writers/seq: ns/op",         // common row compared
		"+ explore/writers/w2 (new row)",     // only in cur
		"- explore/writers/w1 (row removed)", // only in base
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExploreThroughCLIHelpers(t *testing.T) {
	ws, err := bench.ParseWorkers(" 1, 2 ")
	if err != nil || len(ws) != 2 || ws[0] != 1 || ws[1] != 2 {
		t.Fatalf("ParseWorkers = %v, %v", ws, err)
	}
	for _, bad := range []string{"", "0", "two", "4,-1"} {
		if _, err := bench.ParseWorkers(bad); err == nil {
			t.Errorf("ParseWorkers(%q) accepted", bad)
		}
	}
	rep, err := bench.RunExplore(bench.ExploreConfig{Procs: 2, Steps: 2, Workers: ws, Budget: 10000})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encode(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "explore.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkFile(path); err != nil {
		t.Fatalf("checkFile rejected a fresh explore report: %v", err)
	}
}

// writeReport marshals a report to a temp file and returns the path.
func writeReport(t *testing.T, dir, name string, rep *bench.Report) string {
	t.Helper()
	enc, err := encode(rep, true)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tinyReport runs the smallest real throughput suite once per test binary.
func tinyReport(t *testing.T) *bench.Report {
	t.Helper()
	tinyOnce.Do(func() {
		tinyRep, tinyErr = bench.RunThroughput(bench.ThroughputConfig{Procs: 2, OpsPerProc: 50, Seed: 3})
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	clone := *tinyRep
	clone.Results = append([]bench.Result(nil), tinyRep.Results...)
	return &clone
}

var (
	tinyOnce sync.Once
	tinyRep  *bench.Report
	tinyErr  error
)

func TestRunGateAgainstFiles(t *testing.T) {
	dir := t.TempDir()
	base := tinyReport(t)
	// Pin the flight and bounds rows' wall-clock readings: at 50 ops the
	// measured sampled/off and margin/off ratios are pure noise, and this
	// test gates thresholds, not the recorder or the bound scoring.
	for i := range base.Results {
		switch base.Results[i].Name {
		case "counter/farray/increment/flight-off", "counter/farray/increment/bounds-off":
			base.Results[i].NsPerOp = 400
		case "counter/farray/increment/flight-sampled":
			base.Results[i].NsPerOp = 440
		case "counter/farray/increment/bounds-margin":
			base.Results[i].NsPerOp = 412
		}
	}
	basePath := writeReport(t, dir, "base.json", base)

	regressed := *base
	regressed.Results = append([]bench.Result(nil), base.Results...)
	for i := range regressed.Results {
		regressed.Results[i].NsPerOp *= 10
	}
	regPath := writeReport(t, dir, "regressed.json", &regressed)
	deltaPath := filepath.Join(dir, "delta.json")

	// Gating a file against itself passes without running the suite.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-against", basePath, "-gate", basePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("self-gate exited %d:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "gate PASS") {
		t.Fatalf("no PASS verdict:\n%s", stderr.String())
	}

	// A synthetically regressed report trips the gate, exits 1, and ships
	// the delta document.
	stdout.Reset()
	stderr.Reset()
	code := run([]string{"-against", regPath, "-gate", basePath, "-delta", deltaPath}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("regressed gate exited %d, want 1:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "gate FAIL") {
		t.Fatalf("no FAIL verdict:\n%s", stderr.String())
	}
	raw, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	var delta bench.Delta
	if err := json.Unmarshal(raw, &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Schema != bench.DeltaSchema || delta.Pass || delta.Regressions == 0 {
		t.Fatalf("delta document wrong: %+v", delta)
	}

	// Disabling the tripped metric turns the same comparison green.
	stderr.Reset()
	if code := run([]string{"-against", regPath, "-gate", basePath, "-gate-ns", "-1", "-gate-flight", "-1"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("disabled-threshold gate exited %d:\n%s", code, stderr.String())
	}
}

func TestRunDiffAgainstFilesWithoutSuiteRun(t *testing.T) {
	dir := t.TempDir()
	base := tinyReport(t)
	cur := tinyReport(t)
	cur.Results[0].NsPerOp *= 2
	basePath := writeReport(t, dir, "base.json", base)
	curPath := writeReport(t, dir, "cur.json", cur)
	outPath := filepath.Join(dir, "should-not-exist.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{"-against", curPath, "-diff", basePath, "-out", outPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("diff exited %d:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "diff against baseline") {
		t.Fatalf("no diff output:\n%s", stderr.String())
	}
	// -against means no suite ran and nothing is (re)written to -out.
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("-against wrote -out anyway (err=%v)", err)
	}
}

func TestRunAppendSeriesIdempotent(t *testing.T) {
	dir := t.TempDir()
	repPath := writeReport(t, dir, "rep.json", tinyReport(t))
	seriesPath := filepath.Join(dir, "data.json")

	args := []string{"-against", repPath, "-append", seriesPath,
		"-commit", "abc123", "-timestamp", "2026-08-08T12:00:00Z"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("append exited %d:\n%s", code, stderr.String())
	}
	first, err := os.ReadFile(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("re-append exited %d:\n%s", code, stderr.String())
	}
	second, err := os.ReadFile(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("append twice is not idempotent:\n%s\nvs\n%s", first, second)
	}
	series, err := bench.ReadSeries(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Entries) != 1 {
		t.Fatalf("%d entries after double append, want 1", len(series.Entries))
	}
	e := series.Entries[0]
	if e.Commit != "abc123" || e.Timestamp != "2026-08-08T12:00:00Z" || e.Suite != bench.SuiteThroughput {
		t.Fatalf("entry attribution wrong: %+v", e)
	}
	if e.Report.Commit != "abc123" || e.Report.Timestamp != "2026-08-08T12:00:00Z" {
		t.Fatalf("report metadata not stamped: commit=%q ts=%q", e.Report.Commit, e.Report.Timestamp)
	}

	// A second commit becomes a second, ordered entry.
	if code := run([]string{"-against", repPath, "-append", seriesPath,
		"-commit", "def456", "-timestamp", "2026-08-08T13:00:00Z"}, &stdout, &stderr); code != 0 {
		t.Fatalf("second append exited %d:\n%s", code, stderr.String())
	}
	series, err = bench.ReadSeries(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Entries) != 2 || series.Entries[1].Commit != "def456" {
		t.Fatalf("series after second append: %+v", series.Entries)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-timestamp", "not-a-time", "-against", "x"}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad -timestamp exited %d, want 1", code)
	}
	if code := run([]string{"-suite", "nope", "-out", "-"}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad -suite exited %d, want 1", code)
	}
	if code := run([]string{"-gate", filepath.Join(t.TempDir(), "missing.json"), "-against", "also-missing.json"},
		&stdout, &stderr); code != 1 {
		t.Fatalf("missing files exited %d, want 1", code)
	}
}

func TestRunProfileCapturesSuite(t *testing.T) {
	dir := t.TempDir()
	profDir := filepath.Join(dir, "profiles")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-procs", "2", "-ops", "50", "-seed", "3",
		"-out", filepath.Join(dir, "rep.json"), "-profile", profDir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("profiled run exited %d:\n%s", code, stderr.String())
	}
	cpu, err := os.ReadFile(filepath.Join(profDir, "throughput.cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cpu) < 2 || cpu[0] != 0x1f || cpu[1] != 0x8b {
		t.Fatalf("cpu profile is not gzip data (len %d)", len(cpu))
	}
	if _, err := os.Stat(filepath.Join(profDir, "throughput.trace")); err != nil {
		t.Fatal(err)
	}
	// The written report carries the host metadata block.
	rep, err := readReport(filepath.Join(dir, "rep.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite != bench.SuiteThroughput || rep.Host == nil || rep.Host.CPUs < 1 {
		t.Fatalf("report metadata missing: suite=%q host=%+v", rep.Suite, rep.Host)
	}
}

func TestCheckFileRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"not json":      "not json at all",
		"wrong schema":  `{"schema":"nope","seed":1,"procs":1,"ops_per_proc":1,"gomaxprocs":1,"go_version":"x","results":[{"name":"a","procs":1,"ops":1,"ns_per_op":1,"steps_per_op":1,"cas_attempts":0,"cas_failures":0,"cas_failure_rate":0}]}`,
		"unknown field": `{"schema":"tradeoffs/bench/v1","bogus":1,"results":[]}`,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, "bad.json")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := checkFile(path); err == nil {
				t.Fatal("checkFile accepted an invalid report")
			}
		})
	}
	if err := checkFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("checkFile accepted a missing file")
	}
}
