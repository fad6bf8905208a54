package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.db")
	text := `
domain = {10, 20, 30, 40}
E/2 = {(10, 20), (20, 30), (30, 40)}
P/1 = {(10)}
`
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBasicQuery(t *testing.T) {
	db := writeDB(t)
	var out, errw strings.Builder
	err := run(db, "(x, y). exists z. E(x, z) & E(z, y)", "", "bottomup", 0, true, false, false, 0, 0, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "(10, 30)") || !strings.Contains(got, "(20, 40)") {
		t.Fatalf("stdout = %q", got)
	}
	if !strings.Contains(errw.String(), "2 tuple(s)") {
		t.Fatalf("stderr = %q", errw.String())
	}
	if !strings.Contains(errw.String(), "width=3") {
		t.Fatalf("stats missing: %q", errw.String())
	}
}

func TestRunBooleanAndIndices(t *testing.T) {
	db := writeDB(t)
	var out, errw strings.Builder
	if err := run(db, "(). exists x. P(x)", "", "naive", 0, false, false, false, 0, 0, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "true" {
		t.Fatalf("Boolean output = %q", out.String())
	}
	out.Reset()
	if err := run(db, "(x). P(x)", "", "bottomup", 0, false, true, false, 0, 0, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "(0)" { // index of value 10
		t.Fatalf("indices output = %q", out.String())
	}
}

func TestRunQueryFile(t *testing.T) {
	db := writeDB(t)
	qf := filepath.Join(t.TempDir(), "q.txt")
	if err := os.WriteFile(qf, []byte("(x). P(x)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if err := run(db, "", qf, "bottomup", 0, false, false, false, 0, 0, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(10)") {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestRunCertifiedEngine(t *testing.T) {
	db := writeDB(t)
	var out, errw strings.Builder
	q := "(u). [lfp S(x). P(x) | (exists z. E(z, x) & (exists x. x = z & S(x)))](u)"
	if err := run(db, q, "", "certified", 0, false, false, false, 0, 0, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "4 tuple(s)") {
		t.Fatalf("stderr = %q", errw.String())
	}
}

func TestRunErrors(t *testing.T) {
	db := writeDB(t)
	cases := []struct {
		name string
		fn   func() error
		want string // a part of the message, where it is the server's
	}{
		{"missing db", func() error {
			var o, e strings.Builder
			return run("", "(x). P(x)", "", "bottomup", 0, false, false, false, 0, 0, &o, &e)
		}, "missing -db"},
		{"missing query", func() error {
			var o, e strings.Builder
			return run(db, "", "", "bottomup", 0, false, false, false, 0, 0, &o, &e)
		}, ""},
		{"bad engine", func() error {
			var o, e strings.Builder
			return run(db, "(x). P(x)", "", "warpdrive", 0, false, false, false, 0, 0, &o, &e)
		}, ""},
		{"width bound", func() error {
			var o, e strings.Builder
			return run(db, "(x, y). exists z. E(x, z) & E(z, y)", "", "bottomup", 2, false, false, false, 0, 0, &o, &e)
		}, ""},
		{"bad query", func() error {
			var o, e strings.Builder
			return run(db, "(x). Nope(", "", "bottomup", 0, false, false, false, 0, 0, &o, &e)
		}, ""},
		{"nonexistent db file", func() error {
			var o, e strings.Builder
			return run("/nonexistent/x.db", "(x). P(x)", "", "bottomup", 0, false, false, false, 0, 0, &o, &e)
		}, ""},
		{"negative width bound", func() error {
			var o, e strings.Builder
			return run(db, "(x). P(x)", "", "compiled", -1, false, false, false, 0, 0, &o, &e)
		}, "invalid -k -1: must be ≥ 0"},
		{"explain negative width bound", func() error {
			var o, e strings.Builder
			return runExplain(db, "(x). P(x)", "", "compiled", -1, false, &o, &e)
		}, "invalid -k -1: must be ≥ 0"},
		{"explain on another engine", func() error {
			var o, e strings.Builder
			return runExplain(db, "(x). P(x)", "", "naive", 0, false, &o, &e)
		}, `explain requires the compiled engine (got "naive")`},
		{"explain missing db", func() error {
			var o, e strings.Builder
			return runExplain("", "(x). P(x)", "", "compiled", 0, false, &o, &e)
		}, "missing -db"},
	}
	for _, c := range cases {
		err := c.fn()
		if err == nil {
			t.Errorf("%s: no error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
}

// TestRunStream pins the -stream path: same tuples and order as the
// materialized path, -limit/-offset windowing, and the streamed tuple
// accounting on stderr.
func TestRunStream(t *testing.T) {
	db := writeDB(t)
	for _, engine := range []string{"bottomup", "compiled"} {
		var out, errw strings.Builder
		if err := run(db, "(x, y). exists z. E(x, z) & E(z, y)", "", engine, 0, false, false, true, 0, 0, &out, &errw); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); !strings.Contains(got, "(10, 30)") || !strings.Contains(got, "(20, 40)") {
			t.Fatalf("%s stream stdout = %q", engine, got)
		}
		if !strings.Contains(errw.String(), "2 tuple(s), 2 streamed, 0 skipped") {
			t.Fatalf("%s stream stderr = %q", engine, errw.String())
		}
	}
	// Window: skip the first tuple, take one.
	var out, errw strings.Builder
	if err := run(db, "(x, y). exists z. E(x, z) & E(z, y)", "", "compiled", 0, false, false, true, 1, 1, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "(20, 40)" {
		t.Fatalf("windowed stream stdout = %q", got)
	}
	if !strings.Contains(errw.String(), "2 tuple(s), 1 streamed, 1 skipped") {
		t.Fatalf("windowed stream stderr = %q", errw.String())
	}
	// Boolean stream.
	out.Reset()
	if err := run(db, "(). exists x. P(x)", "", "compiled", 0, false, false, true, 0, 0, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "true" {
		t.Fatalf("boolean stream = %q", out.String())
	}
}

// TestRunExplain pins -explain on a 3-hop chain written with four variables:
// the tree is the minimised width-3 plan that ran, with its per-node profile,
// the route it took and the two modelled costs the route was chosen by.
func TestRunExplain(t *testing.T) {
	var out, errw strings.Builder
	err := runExplain(writeDB(t), "(x, y). exists u. exists v. E(x, u) & E(u, v) & E(v, y)", "", "compiled", 0, false, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"minimized: width 4 → 3\n", "width 3 · domain 4", "route sparse (model: dense ", ", sparse ", "1 evals"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("explain output lacks %q:\n%s", want, out.String())
		}
	}
	if errw.String() != "1 tuple(s)\n" {
		t.Fatalf("explain stderr = %q", errw.String())
	}
}

// failWriter simulates a broken pipe / full disk after n successful writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("simulated write failure")
	}
	w.n--
	return len(p), nil
}

// TestRunPropagatesWriteErrors is the regression test for the silent-
// truncation bug: a failed stdout write used to be discarded, so a run whose
// answer never reached the user still exited 0. run must now surface the
// write error (and main turns any error into exit status 1).
func TestRunPropagatesWriteErrors(t *testing.T) {
	db := writeDB(t)
	var errw strings.Builder
	cases := []struct {
		name  string
		query string
	}{
		{"tuple answer", "(x, y). exists z. E(x, z) & E(z, y)"},
		{"boolean answer", "(). exists x. P(x)"},
	}
	for _, c := range cases {
		err := run(db, c.query, "", "bottomup", 0, false, false, false, 0, 0, &failWriter{}, &errw)
		if err == nil {
			t.Errorf("%s: write failure not propagated", c.name)
		} else if !strings.Contains(err.Error(), "simulated write failure") {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
	// Failure mid-answer (first tuple written, second fails) must also fail.
	if err := run(db, "(x, y). exists z. E(x, z) & E(z, y)", "", "bottomup", 0, false, false, false, 0, 0, &failWriter{n: 1}, &errw); err == nil {
		t.Error("mid-answer write failure not propagated")
	}
}
