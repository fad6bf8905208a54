package database

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// benchGraph is the shape of the serving benchmark's sparse databases: 2,000
// nodes, three edge relations of out-degree 3 (about 18,000 tuples) and a
// unary set.
func benchGraph() *Database {
	r := rand.New(rand.NewSource(1))
	b := NewBuilder().Relation("S", 1)
	for i := 0; i < 2000; i++ {
		b.Domain(i)
		if i%97 == 0 {
			b.Add("S", i)
		}
	}
	for _, name := range []string{"E0", "E1", "E2"} {
		b.Relation(name, 2)
		for e := 0; e < 6000; e++ {
			b.Add(name, r.Intn(2000), r.Intn(2000))
		}
	}
	return b.MustBuild()
}

// BenchmarkDatabaseParse prices loading a database from its text into stored
// form: what bvqd's start-up (setup_s) pays per -db file.
func BenchmarkDatabaseParse(b *testing.B) {
	text := benchGraph().String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatabaseApply prices one /update of churn-direct: one edge of one
// 6,000-tuple relation toggled, the other relations shared.
func BenchmarkDatabaseApply(b *testing.B) {
	db := benchGraph()
	edge := []relation.Tuple{{1999, 1999}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		up := Update{Relation: "E1", Insert: edge}
		if i%2 == 1 {
			up = Update{Relation: "E1", Delete: edge}
		}
		next, delta, err := db.Apply([]Update{up})
		if err != nil || delta.Empty() {
			b.Fatalf("toggle %d: %v, delta %+v", i, err, delta)
		}
		db = next
	}
}
