package database

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

func paperDB(t *testing.T) *Database {
	t.Helper()
	db, err := NewBuilder().
		Relation("E", 2).
		Add("E", 3, 5).
		Add("E", 5, 7).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBuildNormalizes(t *testing.T) {
	db := paperDB(t)
	if db.Size() != 3 {
		t.Fatalf("Size = %d, want 3", db.Size())
	}
	want := []int{3, 5, 7}
	for i, v := range db.Domain() {
		if v != want[i] {
			t.Fatalf("domain = %v", db.Domain())
		}
	}
	e, err := db.Rel("E")
	if err != nil {
		t.Fatal(err)
	}
	// 3→0, 5→1, 7→2
	if !e.Equal(relation.SetOf(2, relation.Tuple{0, 1}, relation.Tuple{1, 2})) {
		t.Fatalf("normalized E = %v", e)
	}
	ev, err := db.RelValues("E")
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Equal(relation.SetOf(2, relation.Tuple{3, 5}, relation.Tuple{5, 7})) {
		t.Fatalf("raw E = %v", ev)
	}
	if i, ok := db.Index(5); !ok || i != 1 {
		t.Fatalf("Index(5) = %d,%v", i, ok)
	}
	if _, ok := db.Index(4); ok {
		t.Fatal("Index(4) should not exist")
	}
	if db.Value(2) != 7 {
		t.Fatal("Value(2) != 7")
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
	}{
		{"negative domain", NewBuilder().Domain(-1)},
		{"empty name", NewBuilder().Relation("", 1)},
		{"negative arity", NewBuilder().Relation("R", -1)},
		{"redeclare", NewBuilder().Relation("R", 1).Relation("R", 2)},
		{"undeclared add", NewBuilder().Add("R", 1)},
		{"arity mismatch", NewBuilder().Relation("R", 2).Add("R", 1)},
		{"negative value", NewBuilder().Relation("R", 1).Add("R", -3)},
	}
	for _, c := range cases {
		if _, err := c.b.Build(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestRedeclareSameArityOK(t *testing.T) {
	db, err := NewBuilder().Relation("R", 1).Relation("R", 1).Add("R", 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Names()) != 1 {
		t.Fatalf("Names = %v", db.Names())
	}
}

func TestPaperEncoding(t *testing.T) {
	db := paperDB(t)
	// §2.1: ({3,5,7}; {⟨3,5⟩,⟨5,7⟩}) encodes with binary numerals.
	got := db.Encode()
	want := "({11,101,111},{<11,101>,<101,111>})"
	if got != want {
		t.Fatalf("Encode = %q, want %q", got, want)
	}
	if db.EncodedLen() != len(want) {
		t.Fatal("EncodedLen mismatch")
	}
}

func TestParseRoundTrip(t *testing.T) {
	db, err := NewBuilder().
		Domain(0, 9).
		Relation("E", 2).Add("E", 1, 2).Add("E", 2, 3).
		Relation("P", 1).Add("P", 1).
		Relation("Z", 0).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(db.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", db.String(), err)
	}
	if back.String() != db.String() {
		t.Fatalf("round trip:\n%s\nvs\n%s", db.String(), back.String())
	}
}

func TestParseFormats(t *testing.T) {
	text := `
# a comment
domain = {0, 1, 4}
E/2 = {(0, 1), (1, 4)}
T/1 = {}
`
	db, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 3 {
		t.Fatalf("Size = %d", db.Size())
	}
	tr, _ := db.Rel("T")
	if tr.Len() != 0 {
		t.Fatal("T should be empty")
	}
	e, _ := db.RelValues("E")
	if !e.Contains(relation.Tuple{1, 4}) {
		t.Fatalf("E = %v", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"E/2",                   // no '='
		"E/2 = (0,1)",           // not braced
		"E = {(0,1)}",           // no arity
		"E/x = {(0,1)}",         // bad arity
		"E/2 = {(0,1}",          // unclosed tuple
		"E/2 = {(0,y)}",         // bad component
		"domain = {a}",          // bad domain element
		"E/2 = {(0,1) junk}",    // trailing garbage
		"E/2 = {(0, 1, 2)}",     // arity mismatch inside tuples
		"E/2 = {(0,1)}\nE/3={}", // redeclared
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded", text)
		}
	}
}

func TestNontrivial(t *testing.T) {
	if paperDB(t).Nontrivial() != true {
		t.Fatal("paper database should be nontrivial")
	}
	one, _ := NewBuilder().Domain(0).Relation("P", 1).Add("P", 0).Build()
	if one.Nontrivial() {
		t.Fatal("single-element database should be trivial")
	}
	full, _ := NewBuilder().Domain(0, 1).Relation("P", 1).Add("P", 0).Add("P", 1).Build()
	if full.Nontrivial() {
		t.Fatal("database whose only relation is D^k should be trivial")
	}
}

func TestStringFormat(t *testing.T) {
	db := paperDB(t)
	s := db.String()
	if !strings.Contains(s, "domain = {3, 5, 7}") || !strings.Contains(s, "E/2 = {(3, 5), (5, 7)}") {
		t.Fatalf("String = %q", s)
	}
}
