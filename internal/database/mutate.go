// Tuple-level mutation. A Database value is immutable — every evaluator,
// fingerprint and cache key relies on that — so mutation is expressed as
// Apply: it returns a NEW snapshot sharing every unchanged relation with its
// parent (copy-on-write at relation granularity), plus the effective Delta
// that separates the two. Holders of the old snapshot are unaffected:
// in-flight queries keep evaluating against byte-identical data, which is
// the MVCC discipline the bvqd daemon serves updates under.
//
// Snapshots form a lineage: Version counts effective updates since Build,
// and the fingerprint of a mutated snapshot is a hash chain over
// (parent fingerprint, new version, canonical delta encoding). Two
// snapshots with equal fingerprints have equal content — the soundness
// direction result caching needs — while the chain keeps fingerprint
// maintenance O(|delta|) instead of O(|data|) per update.
//
// The domain is fixed for the lifetime of a lineage: updates may only
// mention values already in the domain. Growing the domain would renumber
// domain indices and silently invalidate every cached dense encoding, so it
// is rejected rather than supported badly.
package database

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"sort"

	"repro/internal/relation"
)

// Update is one relation's tuple-level change in an Apply call. Tuples are
// given in raw domain values (the Builder.Add convention). Within one Apply,
// deletes are applied before inserts, so a tuple appearing in both lists
// ends up present.
type Update struct {
	// Relation names a declared relation of the database.
	Relation string
	// Insert lists tuples to add; Delete lists tuples to remove. Both may
	// mention tuples that are already present / absent — those are no-ops.
	Insert []relation.Tuple
	Delete []relation.Tuple
}

// RelDelta is one relation's effective change: the tuples actually added and
// actually removed, in domain-index space (the evaluators' coordinate
// system), each sorted in canonical tuple order.
type RelDelta struct {
	Ins []relation.Tuple
	Del []relation.Tuple
}

// Delta describes the effective difference between a parent snapshot and the
// snapshot Apply returned. Relations with no effective change do not appear.
type Delta struct {
	// FromVersion and Version are the parent's and the new snapshot's
	// versions. Equal when the update was an effective no-op.
	FromVersion uint64
	Version     uint64
	// Rels maps relation name → effective change, in domain-index space.
	Rels map[string]RelDelta
}

// Empty reports whether the update changed nothing.
func (d *Delta) Empty() bool { return len(d.Rels) == 0 }

// Relations returns the names of effectively changed relations, sorted.
func (d *Delta) Relations() []string {
	out := make([]string, 0, len(d.Rels))
	for name := range d.Rels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Counts returns the total number of effectively inserted and deleted tuples.
func (d *Delta) Counts() (ins, del int) {
	for _, rd := range d.Rels {
		ins += len(rd.Ins)
		del += len(rd.Del)
	}
	return ins, del
}

// Version returns the number of effective updates between Build and this
// snapshot (0 for a freshly built database).
func (db *Database) Version() uint64 { return db.version }

// Apply returns a new snapshot with the updates applied, plus the effective
// delta separating it from db. The receiver is never modified. Unchanged
// relations are shared between the snapshots, so Apply is O(|changed
// relations| + |delta|), not O(|data|).
//
// Tuples are raw domain values; every value must already be in the domain
// (domains are fixed per lineage — see the package comment). An update that
// changes nothing effectively returns the receiver itself with an empty
// delta and no version bump.
func (db *Database) Apply(ups []Update) (*Database, *Delta, error) {
	// Accumulate deduplicated per-relation insert/delete sets in index space.
	insSets := make(map[string]*relation.Set)
	delSets := make(map[string]*relation.Set)
	for _, up := range ups {
		a, ok := db.arity[up.Relation]
		if !ok {
			return nil, nil, fmt.Errorf("database: update: unknown relation %q", up.Relation)
		}
		norm := func(t relation.Tuple, verb string) (relation.Tuple, error) {
			if len(t) != a {
				return nil, fmt.Errorf("database: update: relation %s has arity %d, cannot %s %d-tuple %v",
					up.Relation, a, verb, len(t), t)
			}
			nt := make(relation.Tuple, len(t))
			for i, v := range t {
				x, ok := db.idx[v]
				if !ok {
					return nil, fmt.Errorf("database: update: relation %s %s tuple %v: value %d is not in the domain (domains are fixed per database)",
						up.Relation, verb, t, v)
				}
				nt[i] = x
			}
			return nt, nil
		}
		for _, t := range up.Delete {
			nt, err := norm(t, "delete")
			if err != nil {
				return nil, nil, err
			}
			if delSets[up.Relation] == nil {
				delSets[up.Relation] = relation.NewSet(a)
			}
			delSets[up.Relation].Add(nt)
		}
		for _, t := range up.Insert {
			nt, err := norm(t, "insert")
			if err != nil {
				return nil, nil, err
			}
			if insSets[up.Relation] == nil {
				insSets[up.Relation] = relation.NewSet(a)
			}
			insSets[up.Relation].Add(nt)
		}
	}

	// Effective delta: inserts that are genuinely new, deletes that hit an
	// existing tuple and are not re-inserted in the same call (deletes apply
	// first, so insert wins on overlap).
	delta := &Delta{FromVersion: db.version, Version: db.version, Rels: make(map[string]RelDelta)}
	names := make(map[string]bool, len(insSets)+len(delSets))
	for name := range insSets {
		names[name] = true
	}
	for name := range delSets {
		names[name] = true
	}
	for name := range names {
		cur := db.rels[name].tuples()
		var rd RelDelta
		if ins := insSets[name]; ins != nil {
			ins.ForEach(func(t relation.Tuple) {
				if !cur.Contains(t) {
					rd.Ins = append(rd.Ins, t)
				}
			})
		}
		if del := delSets[name]; del != nil {
			ins := insSets[name]
			del.ForEach(func(t relation.Tuple) {
				if ins != nil && ins.Contains(t) {
					return
				}
				if cur.Contains(t) {
					rd.Del = append(rd.Del, t)
				}
			})
		}
		if len(rd.Ins) == 0 && len(rd.Del) == 0 {
			continue
		}
		relation.SortTuples(rd.Ins)
		relation.SortTuples(rd.Del)
		delta.Rels[name] = rd
	}
	if delta.Empty() {
		return db, delta, nil
	}

	// Copy-on-write snapshot: new relation map, changed relations replaced,
	// everything else (domain, index, signature, unchanged relations) shared.
	next := &Database{
		domain:  db.domain,
		idx:     db.idx,
		names:   db.names,
		arity:   db.arity,
		rels:    maps.Clone(db.rels),
		relIDs:  maps.Clone(db.relIDs),
		version: db.version + 1,
	}
	for name, rd := range delta.Rels {
		var err error
		if next.rels[name], err = db.rels[name].apply(rd.Ins, rd.Del); err != nil {
			return nil, nil, err
		}
		next.relIDs[name] = db.relIDs[name].shift(rd.Ins, false).shift(rd.Del, true)
	}
	delta.Version = next.version
	next.fpOnce.Do(func() { next.fp = lineageFingerprint(db.Fingerprint(), next.version, delta) })
	return next, delta, nil
}

// RelID is the content identity of one relation: the hash of its arity plus, in four 64-bit
// lanes, the SHA-256 of each tuple. Equal relations have equal IDs in any snapshot or lineage;
// unequal ones differ unless 256 bits collide (by accident never; a crafted update stream is not
// defended against). Apply moves an ID by its delta alone; eval.NodeStore keys values by it.
type RelID [sha256.Size]byte

// RelID returns the named relation's content identity, zero if undeclared.
func (db *Database) RelID(name string) RelID { return db.relIDs[name] }

// ContentID is the identity of what a query reading exactly the relations rels
// sees of db: a 64-bit FNV-1a fold of the domain size and each relation's name
// and RelID. Snapshots of any lineage, of any database, that agree there get one
// ID, and a query's value (§2.1–2.2: a function of D and the Rᵢ occurring in it)
// is then the same on both; bvqd keys cached answers by it. A nil rels — the
// footprint is unknown — falls back to Fingerprint, which reads everything.
func (db *Database) ContentID(rels []string) uint64 {
	if rels == nil {
		return db.Fingerprint()
	}
	h := uint64(14695981039346656037)
	fold := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for i := 0; i < 64; i += 8 {
		fold(byte(len(db.domain) >> i))
	}
	for _, name := range rels {
		for i := 0; i < len(name); i++ {
			fold(name[i])
		}
		fold(0) // ends the name; the ID after it has one length
		for _, b := range db.relIDs[name] {
			fold(b)
		}
	}
	return h
}

func contentID(r tuples) RelID {
	id := RelID(sha256.Sum256([]byte{byte(r.Arity())}))
	r.ForEach(func(t relation.Tuple) { id = id.shift([]relation.Tuple{t}, false) })
	return id
}

// shift adds (subtracts, if sub) the hashes of ts, tuples the relation lacks (holds).
func (id RelID) shift(ts []relation.Tuple, sub bool) RelID {
	for _, t := range ts {
		buf := make([]byte, 0, 64)
		for _, v := range t {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		h := sha256.Sum256(buf)
		for i := 0; i < len(id); i += 8 {
			a, b := binary.LittleEndian.Uint64(id[i:]), binary.LittleEndian.Uint64(h[i:])
			if sub {
				b = -b
			}
			binary.LittleEndian.PutUint64(id[i:], a+b)
		}
	}
	return id
}

// lineageFingerprint chains the parent fingerprint with the canonical delta
// encoding. Equal fingerprints still imply equal content (same base, same
// update history ⇒ same data); distinct histories reaching the same content
// get distinct fingerprints, which costs only a potential cache miss.
func lineageFingerprint(parent uint64, version uint64, d *Delta) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%d", parent, version)
	for _, name := range d.Relations() {
		rd := d.Rels[name]
		fmt.Fprintf(h, "|%s", name)
		for _, t := range rd.Ins {
			io.WriteString(h, "+"+t.String())
		}
		for _, t := range rd.Del {
			io.WriteString(h, "-"+t.String())
		}
	}
	return h.Sum64()
}
