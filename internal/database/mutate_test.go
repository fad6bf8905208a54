package database

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

func twoRelDB(t *testing.T) *Database {
	t.Helper()
	db, err := NewBuilder().
		Relation("E", 2).Relation("P", 1).
		Add("E", 0, 1).Add("E", 1, 2).Add("P", 0).
		Domain(3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestApplySnapshot(t *testing.T) {
	db := twoRelDB(t)
	baseText := db.String()
	baseEnc := db.Encode()
	baseFP := db.Fingerprint()

	next, delta, err := db.Apply([]Update{
		{Relation: "E", Insert: []relation.Tuple{{2, 3}}, Delete: []relation.Tuple{{0, 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.String() != baseText || db.Encode() != baseEnc || db.Fingerprint() != baseFP {
		t.Fatalf("parent snapshot changed under Apply")
	}
	if db.Version() != 0 || next.Version() != 1 {
		t.Fatalf("versions = %d → %d, want 0 → 1", db.Version(), next.Version())
	}
	if next.Fingerprint() == baseFP {
		t.Fatalf("fingerprint did not change across an effective update")
	}
	e, err := next.RelValues("E")
	if err != nil {
		t.Fatal(err)
	}
	if e.Contains(relation.Tuple{0, 1}) || !e.Contains(relation.Tuple{2, 3}) || !e.Contains(relation.Tuple{1, 2}) {
		t.Fatalf("unexpected E after update: %v", e)
	}

	// The untouched relation is shared between snapshots, not copied.
	p0, _ := db.Rel("P")
	p1, _ := next.Rel("P")
	if p0 != p1 {
		t.Fatalf("unchanged relation was copied instead of shared")
	}

	// Effective delta in index space, sorted.
	rd, ok := delta.Rels["E"]
	if !ok || len(delta.Rels) != 1 {
		t.Fatalf("delta relations = %v, want {E}", delta.Relations())
	}
	i2, _ := db.Index(2)
	i3, _ := db.Index(3)
	if len(rd.Ins) != 1 || !rd.Ins[0].Equal(relation.Tuple{i2, i3}) {
		t.Fatalf("delta ins = %v", rd.Ins)
	}
	if len(rd.Del) != 1 {
		t.Fatalf("delta del = %v", rd.Del)
	}
	if ins, del := delta.Counts(); ins != 1 || del != 1 {
		t.Fatalf("Counts = %d,%d", ins, del)
	}
}

func TestApplyEffectiveNoop(t *testing.T) {
	db := twoRelDB(t)
	next, delta, err := db.Apply([]Update{
		{Relation: "E", Insert: []relation.Tuple{{0, 1}}, Delete: []relation.Tuple{{2, 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Empty() {
		t.Fatalf("expected empty delta, got %v", delta.Relations())
	}
	if next != db {
		t.Fatalf("no-op update did not return the receiver")
	}
	if next.Version() != 0 {
		t.Fatalf("no-op update bumped the version to %d", next.Version())
	}
}

func TestApplyDeleteThenInsertWins(t *testing.T) {
	db := twoRelDB(t)
	// Absent tuple in both lists: delete applies first, insert wins.
	next, delta, err := db.Apply([]Update{
		{Relation: "E", Insert: []relation.Tuple{{3, 3}}, Delete: []relation.Tuple{{3, 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := next.RelValues("E")
	if !e.Contains(relation.Tuple{3, 3}) {
		t.Fatalf("insert did not win over delete of the same tuple")
	}
	if rd := delta.Rels["E"]; len(rd.Ins) != 1 || len(rd.Del) != 0 {
		t.Fatalf("delta = +%v -%v, want one insert", rd.Ins, rd.Del)
	}
	// Present tuple in both lists: net no-op.
	same, delta2, err := db.Apply([]Update{
		{Relation: "E", Insert: []relation.Tuple{{0, 1}}, Delete: []relation.Tuple{{0, 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !delta2.Empty() || same != db {
		t.Fatalf("present tuple in both lists should be a no-op")
	}
}

func TestApplyErrors(t *testing.T) {
	db := twoRelDB(t)
	cases := []struct {
		name string
		ups  []Update
		want string
	}{
		{"unknown relation", []Update{{Relation: "Q", Insert: []relation.Tuple{{0}}}}, "unknown relation"},
		{"arity", []Update{{Relation: "E", Insert: []relation.Tuple{{0}}}}, "arity"},
		{"domain", []Update{{Relation: "E", Insert: []relation.Tuple{{0, 9}}}}, "not in the domain"},
		{"domain delete", []Update{{Relation: "P", Delete: []relation.Tuple{{17}}}}, "not in the domain"},
	}
	for _, tc := range cases {
		_, _, err := db.Apply(tc.ups)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestApplyFingerprintLineage(t *testing.T) {
	db := twoRelDB(t)
	u := []Update{{Relation: "E", Insert: []relation.Tuple{{2, 3}, {3, 0}}}}
	a1, _, err := db.Apply(u)
	if err != nil {
		t.Fatal(err)
	}
	// Same update listed in a different order: same content, same fingerprint.
	a2, _, err := db.Apply([]Update{
		{Relation: "E", Insert: []relation.Tuple{{3, 0}}},
		{Relation: "E", Insert: []relation.Tuple{{2, 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Fingerprint() != a2.Fingerprint() {
		t.Fatalf("equivalent updates produced distinct fingerprints")
	}
	// Chained updates keep changing the fingerprint.
	b, _, err := a1.Apply([]Update{{Relation: "P", Insert: []relation.Tuple{{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint() == a1.Fingerprint() || b.Version() != 2 {
		t.Fatalf("chained update: fp %x vs %x, version %d", b.Fingerprint(), a1.Fingerprint(), b.Version())
	}
	// The fingerprint is the content's: an update and its inverse restore it,
	// and two commuting updates agree in either order.
	back, _, err := b.Apply([]Update{{Relation: "P", Delete: []relation.Tuple{{1}}}})
	if err != nil || back.Fingerprint() != a1.Fingerprint() || back.Version() != 3 {
		t.Fatalf("an update and its inverse: fp %x vs %x, version %d, %v", back.Fingerprint(), a1.Fingerprint(), back.Version(), err)
	}
	pFirst, _, err := db.Apply([]Update{{Relation: "P", Insert: []relation.Tuple{{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	ep, _, err := pFirst.Apply(u)
	if err != nil || ep.Fingerprint() != b.Fingerprint() {
		t.Fatalf("commuting updates in the other order: fp %x vs %x, %v", ep.Fingerprint(), b.Fingerprint(), err)
	}
	if rebuilt, err := Parse(b.String()); err != nil || rebuilt.Fingerprint() != b.Fingerprint() {
		t.Fatalf("a build of the same content: %v", err)
	}
	// Different domain values, or a renamed relation, still differ.
	shifted := NewBuilder().Relation("E", 2).Relation("P", 1).Add("E", 0, 1).Add("E", 1, 2).Add("P", 0).Domain(4).MustBuild()
	renamed := NewBuilder().Relation("F", 2).Relation("P", 1).Add("F", 0, 1).Add("F", 1, 2).Add("P", 0).Domain(3).MustBuild()
	if shifted.Fingerprint() == db.Fingerprint() || renamed.Fingerprint() == db.Fingerprint() {
		t.Fatal("a domain value or a relation name is not part of the fingerprint")
	}
}

// TestRelIDFollowsContent: a relation's identity is its content's — carried
// over by an Apply that leaves the relation alone, new when its tuples change,
// the old one again when they change back, and equal across lineages.
func TestRelIDFollowsContent(t *testing.T) {
	db := twoRelDB(t)
	if db.RelID("E") == db.RelID("P") || db.RelID("E") == (RelID{}) || db.RelID("nope") != (RelID{}) {
		t.Fatal("identities must tell relations apart and be zero for undeclared names")
	}
	ins, _, err := db.Apply([]Update{{Relation: "E", Insert: []relation.Tuple{{2, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if ins.RelID("P") != db.RelID("P") || ins.RelID("E") == db.RelID("E") {
		t.Fatal("Apply must keep P's identity and change E's")
	}
	back, _, err := ins.Apply([]Update{{Relation: "E", Delete: []relation.Tuple{{2, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if back.RelID("E") != db.RelID("E") || back.Fingerprint() != db.Fingerprint() {
		t.Fatal("equal content must have equal identity in any lineage")
	}
	if twoRelDB(t).RelID("E") != db.RelID("E") {
		t.Fatal("identity differs between two builds of the same relation")
	}
	// Apply moves the identity by the delta; it must land where a hash of the
	// whole relation does, whatever mix of inserts and deletes got it there.
	mixed, _, err := ins.Apply([]Update{{Relation: "E", Insert: []relation.Tuple{{3, 0}, {2, 3}}, Delete: []relation.Tuple{{0, 1}, {3, 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := mixed.Rel("E"); e.Len() != 3 || mixed.RelID("E") != contentID(e) || mixed.RelID("E") == ins.RelID("E") {
		t.Fatal("the identity Apply carried is not the identity of the content")
	}
	if contentID(relation.NewSet(1)) == contentID(relation.NewSet(2)) {
		t.Fatal("empty relations of different arity share an identity")
	}
}

// TestFingerprintOnce: a database computes its fingerprint once, from any
// number of goroutines (run under -race).
func TestFingerprintOnce(t *testing.T) {
	db := twoRelDB(t)
	got := make(chan uint64, 8)
	for i := 0; i < cap(got); i++ {
		go func() { got <- db.Fingerprint() }()
	}
	want := twoRelDB(t).Fingerprint()
	for i := 0; i < cap(got); i++ {
		if fp := <-got; fp != want {
			t.Fatalf("fingerprint %016x, want %016x", fp, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { db.Fingerprint() }); n != 0 {
		t.Fatalf("a repeated Fingerprint call allocates %v times: it re-hashed the encoding", n)
	}
}

// TestContentID: the identity of what a query reads is the content's, not the
// lineage's — equal when the footprint's relations and the domain size are,
// whatever happened elsewhere or on the way, and different as soon as one of
// them is not.
func TestContentID(t *testing.T) {
	apply := func(db *Database, ups ...Update) *Database {
		t.Helper()
		next, _, err := db.Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	insE := Update{Relation: "E", Insert: []relation.Tuple{{2, 3}}}
	delE := Update{Relation: "E", Delete: []relation.Tuple{{2, 3}}}
	insP := Update{Relation: "P", Insert: []relation.Tuple{{2}}}
	db := twoRelDB(t)
	e, p, both := []string{"E"}, []string{"P"}, []string{"E", "P"}

	if db.ContentID(nil) != db.ContentID([]string{}) || db.ContentID(nil) == db.ContentID(e) {
		t.Fatal("the empty footprint is a footprint: the domain size alone")
	}
	// Insert then delete: another lineage, the same content.
	back := apply(apply(db, insE), delE)
	if back.Fingerprint() != db.Fingerprint() || back.ContentID(both) != db.ContentID(both) {
		t.Fatal("insert-then-delete must return to the content's identity on a new lineage")
	}
	// Two orders of commuting updates.
	ep, pe := apply(apply(db, insE), insP), apply(apply(db, insP), insE)
	if ep.Fingerprint() != pe.Fingerprint() || ep.ContentID(both) != pe.ContentID(both) {
		t.Fatal("commuting updates must reach one identity in either order")
	}
	// Any changed footprint relation moves it; a change outside does not.
	onE := apply(db, insE)
	if onE.ContentID(e) == db.ContentID(e) || onE.ContentID(both) == db.ContentID(both) {
		t.Fatal("a changed footprint relation must change the identity")
	}
	if onE.ContentID(p) != db.ContentID(p) {
		t.Fatal("a change outside the footprint must not change the identity")
	}
	if n := testing.AllocsPerRun(10, func() { db.ContentID(both) }); n != 0 {
		t.Fatalf("ContentID allocates %v times on the request path", n)
	}

	build := func(n int, a, b []int) *Database {
		t.Helper()
		bl := NewBuilder().Relation("A", 1).Relation("B", 1)
		for v := 0; v < n; v++ {
			bl.Domain(v)
		}
		for _, v := range a {
			bl.Add("A", v)
		}
		for _, v := range b {
			bl.Add("B", v)
		}
		out, err := bl.Build()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ab := []string{"A", "B"}
	base := build(4, []int{0}, []int{1, 2})
	if build(4, []int{0}, []int{1, 2}).ContentID(ab) != base.ContentID(ab) {
		t.Fatal("two builds of one content differ")
	}
	if build(5, []int{0}, []int{1, 2}).ContentID(ab) == base.ContentID(ab) {
		t.Fatal("the domain size is part of what a query reads")
	}
	if build(4, []int{1, 2}, []int{0}).ContentID(ab) == base.ContentID(ab) {
		t.Fatal("swapped contents of two relations share an identity: names must be folded in")
	}
}
