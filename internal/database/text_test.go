package database

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relation"
)

// TestLargeDomainValuesRoundTrip: domain elements are natural numbers, not
// 32-bit ones. Two values that agree mod 2³² are two tuples in every form the
// database takes — text, standard encoding, fingerprint, RelValues, the ordered
// copy — and come back as two. (relation.tupleKey used to key a tuple by the
// low 32 bits of each component, and the printers went through a value-keyed
// Set: the text read R/1 = {(1)}.)
func TestLargeDomainValuesRoundTrip(t *testing.T) {
	const big = 1<<32 + 1
	db := NewBuilder().Relation("R", 1).Add("R", 1).Add("R", big).MustBuild()
	const text = "domain = {1, 4294967297}\nR/1 = {(1), (4294967297)}\n"
	const enc = "({1,100000000000000000000000000000001},{<1>,<100000000000000000000000000000001>})"
	if db.String() != text || db.Encode() != enc {
		t.Fatalf("printed\n%s%s\nwant\n%s%s", db, db.Encode(), text, enc)
	}
	if vals, err := db.RelValues("R"); err != nil || vals.Len() != 2 || !vals.Contains(relation.Tuple{big}) {
		t.Fatalf("RelValues = %v, %v: want both tuples", vals, err)
	}
	parsed, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeEncoded(enc, RelDecl{Name: "R", Arity: 1})
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := db.WithOrder()
	if err != nil {
		t.Fatal(err)
	}
	for name, back := range map[string]*Database{"Parse": parsed, "DecodeEncoded": decoded, "WithOrder": ordered} {
		if back.Card("R") != 2 || back.RelID("R") != db.RelID("R") || !strings.Contains(back.String(), "R/1 = {(1), (4294967297)}\n") {
			t.Fatalf("%s lost a tuple:\n%s", name, back)
		}
	}
	if parsed.Fingerprint() != db.Fingerprint() || decoded.Fingerprint() != db.Fingerprint() {
		t.Fatal("the round trips changed the fingerprint")
	}
	one := NewBuilder().Relation("R", 1).Add("R", 1).Domain(big).MustBuild()
	if one.Fingerprint() == db.Fingerprint() || one.RelID("R") == db.RelID("R") {
		t.Fatal("{(1)} and {(1), (2³²+1)} share an identity")
	}
}

// sameStored reports whether two snapshots store the named relation equally,
// in whichever form its shape has.
func sameStored(a, b *Database, name string) bool {
	x, y := a.rels[name], b.rels[name]
	if x.codes == nil || y.codes == nil {
		return x.codes == nil && y.codes == nil && x.set.Equal(y.set)
	}
	return x.codes.Equal(y.codes)
}

// sameContent fails unless got is want read back: one signature, one domain,
// every relation stored and identified equally, one fingerprint.
func sameContent(t *testing.T, what string, want, got *Database) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint moved\n%s\nvs\n%s", what, want, got)
	}
	for _, name := range want.Names() {
		if got.RelID(name) != want.RelID(name) || !sameStored(want, got, name) {
			t.Fatalf("%s: relation %s moved\n%s\nvs\n%s", what, name, want, got)
		}
	}
}

// updatesFrom reads a list of updates off ops: per update a relation, a verb
// and one domain element per component.
func updatesFrom(db *Database, ops []byte) []Update {
	var ups []Update
	names := db.Names()
	for len(ops) >= 2 && len(names) > 0 {
		name := names[int(ops[0])%len(names)]
		insert := ops[1]&1 == 0
		a := db.arity[name]
		if ops = ops[2:]; a > len(ops) || a > 0 && db.Size() == 0 {
			break
		}
		t := make(relation.Tuple, a)
		for i := range t {
			t[i] = db.Value(int(ops[i]) % db.Size())
		}
		ops = ops[a:]
		if insert {
			ups = append(ups, Update{Relation: name, Insert: []relation.Tuple{t}})
		} else {
			ups = append(ups, Update{Relation: name, Delete: []relation.Tuple{t}})
		}
	}
	return ups
}

// checkText is the fuzz property of one database that some text gave.
func checkText(t *testing.T, db *Database, ops []byte) {
	parsed, err := Parse(db.String())
	if err != nil {
		t.Fatalf("Parse of String: %v\n%s", err, db)
	}
	sameContent(t, "Parse(String)", db, parsed)
	var decls []RelDecl
	for _, name := range db.Names() {
		decls = append(decls, RelDecl{Name: name, Arity: db.arity[name]})
	}
	decoded, err := DecodeEncoded(db.Encode(), decls...)
	if err != nil {
		t.Fatalf("DecodeEncoded of Encode: %v\n%s", err, db.Encode())
	}
	sameContent(t, "DecodeEncoded(Encode)", db, decoded)

	next, delta, err := db.Apply(updatesFrom(db, ops))
	if err != nil {
		t.Fatalf("Apply of in-domain tuples: %v", err)
	}
	var inverse []Update
	values := func(ts []relation.Tuple) (out []relation.Tuple) {
		for _, t := range ts {
			vt := t.Clone()
			for i, x := range vt {
				vt[i] = db.Value(x)
			}
			out = append(out, vt)
		}
		return out
	}
	for name, rd := range delta.Rels {
		inverse = append(inverse, Update{Relation: name, Insert: values(rd.Del), Delete: values(rd.Ins)})
		if next.RelID(name) != contentID(next.rels[name].tuples()) {
			t.Fatalf("Apply carried an identity of %s that is not its content's", name)
		}
	}
	// What Apply stored is what a build of the new content stores.
	rebuilt, err := Parse(next.String())
	if err != nil {
		t.Fatalf("Parse of the updated String: %v", err)
	}
	back, _, err := next.Apply(inverse)
	if err != nil {
		t.Fatalf("Apply of the inverse: %v", err)
	}
	for _, name := range db.Names() {
		if rebuilt.RelID(name) != next.RelID(name) || !sameStored(rebuilt, next, name) {
			t.Fatalf("Apply and Build disagree on %s:\n%s\nvs\n%s", name, next, rebuilt)
		}
		if back.RelID(name) != db.RelID(name) || !sameStored(back, db, name) {
			t.Fatalf("an update and its inverse moved %s:\n%s\nvs\n%s", name, db, back)
		}
	}
	if rebuilt.Fingerprint() != next.Fingerprint() || back.Fingerprint() != db.Fingerprint() {
		t.Fatalf("the fingerprint is not the content's:\n%s\nvs\n%s", db, back)
	}
}

// randomText prints a random database the way the differential generators of
// internal/eval build theirs: a few relations of arity 0–3 over a small
// domain with gaps, each tuple drawn independently.
func randomText(r *rand.Rand) string {
	b := NewBuilder()
	n := 1 + r.Intn(6)
	for i := 0; i < n; i++ {
		b.Domain(3 * i)
	}
	for ri, rels := 0, 1+r.Intn(3); ri < rels; ri++ {
		name, a := fmt.Sprintf("R%d", ri), r.Intn(4)
		b.Relation(name, a)
		for j := r.Intn(2 * n); j > 0; j-- {
			t := make([]int, a)
			for i := range t {
				t[i] = 3 * r.Intn(n)
			}
			b.Add(name, t...)
		}
	}
	return b.MustBuild().String()
}

// FuzzDatabaseText holds the two text forms and Apply to the stored form:
// Parse and DecodeEncoded never panic; a database either accepts prints
// (String, Encode) to text that reads back with equal fingerprint, RelIDs and
// stored relations; Apply stores what a build of the new content stores, under
// the identity of that content; and an update followed by its inverse restores
// every RelID and stored relation.
func FuzzDatabaseText(f *testing.F) {
	files, err := filepath.Glob("../../examples/data/*.db")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example databases: %v", err)
	}
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text), []byte{0, 0, 1, 2, 1, 1, 0})
	}
	// W/63 over {0, 1} has no code space (2⁶³ codes): Apply runs the diff over
	// Sets. The ops insert the all-ones tuple and delete the stored all-zeros one.
	ops := append([]byte{0, 0}, bytes.Repeat([]byte{1}, 63)...)
	ops = append(append(ops, 0, 1), make([]byte, 63)...)
	f.Add(NewBuilder().Relation("W", 63).Add("W", make([]int, 63)...).Domain(1).MustBuild().String(), ops)
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 12; i++ {
		ops := make([]byte, 4*r.Intn(6))
		r.Read(ops)
		f.Add(randomText(r), ops)
	}
	f.Fuzz(func(t *testing.T, text string, ops []byte) {
		if db, err := DecodeEncoded(text); err == nil {
			checkText(t, db, ops)
		}
		if db, err := Parse(text); err == nil {
			checkText(t, db, ops)
		}
	})
}
