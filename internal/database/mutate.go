// Mutation. A Database value is immutable — every evaluator, fingerprint and
// cache key relies on that — so mutation is expressed as Apply: it returns a
// NEW snapshot sharing every unchanged relation with its parent (copy-on-write
// at relation granularity), plus the effective Delta that separates the two.
// Each changed relation is diffed in its stored form (stored.apply): the batch
// becomes sorted codes, the code operators take the effective change, and one
// merge of disjoint blocks gives the new block. Holders of the old snapshot
// are unaffected: in-flight queries keep evaluating against byte-identical
// data, which is the MVCC discipline the bvqd daemon serves updates under.
//
// Snapshots form a lineage: Version counts effective updates since Build.
// Identity is content, not lineage: Apply moves a changed relation's RelID by
// its delta alone, and Fingerprint and ContentID fold RelIDs, so an update and
// its inverse, or commuting updates in either order, reach the old identity.
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
	"maps"
	"slices"
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
	// Per relation, its deletes [0] and inserts [1] in index space, every
	// tuple checked before any relation is touched.
	batch := make(map[string][2][]relation.Tuple)
	for _, up := range ups {
		a, ok := db.arity[up.Relation]
		if !ok {
			return nil, nil, fmt.Errorf("database: update: unknown relation %q", up.Relation)
		}
		b := batch[up.Relation]
		for i, ts := range [2][]relation.Tuple{up.Delete, up.Insert} {
			verb := [2]string{"delete", "insert"}[i]
			for _, t := range ts {
				if len(t) != a {
					return nil, nil, fmt.Errorf("database: update: relation %s has arity %d, cannot %s %d-tuple %v",
						up.Relation, a, verb, len(t), t)
				}
				nt := make(relation.Tuple, a)
				for j, v := range t {
					x, ok := db.idx[v]
					if !ok {
						return nil, nil, fmt.Errorf("database: update: relation %s %s tuple %v: value %d is not in the domain (domains are fixed per database)",
							up.Relation, verb, t, v)
					}
					nt[j] = x
				}
				b[i] = append(b[i], nt)
			}
		}
		batch[up.Relation] = b
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
	delta := &Delta{FromVersion: db.version, Version: db.version, Rels: make(map[string]RelDelta)}
	for name, b := range batch {
		if st, rd := db.rels[name].apply(db.arity[name], len(db.domain), b[1], b[0]); st != nil {
			next.rels[name], next.relIDs[name] = st, db.relIDs[name].shift(rd.Ins, false).shift(rd.Del, true)
			delta.Rels[name] = rd
		}
	}
	if delta.Empty() {
		return db, delta, nil
	}
	delta.Version = next.version
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
// is then the same on both; bvqd keys cached answers by it.
func (db *Database) ContentID(rels []string) uint64 {
	return uint64(fnv(14695981039346656037).word(uint64(len(db.domain))).rels(db, rels))
}

// Fingerprint is the identity of the whole snapshot: ContentID's fold, with
// the domain values after its size and every relation, in name order. Equal
// content has one fingerprint in any lineage; computed once per snapshot.
func (db *Database) Fingerprint() uint64 {
	db.fpOnce.Do(func() {
		h := fnv(14695981039346656037).word(uint64(len(db.domain)))
		for _, v := range db.domain {
			h = h.word(uint64(v))
		}
		names := slices.Clone(db.names)
		slices.Sort(names)
		db.fp = uint64(h.rels(db, names))
	})
	return db.fp
}

// fnv is a 64-bit FNV-1a state.
type fnv uint64

func (h fnv) byte(b byte) fnv { return (h ^ fnv(b)) * 1099511628211 }

// word folds v's eight bytes, low first.
func (h fnv) word(v uint64) fnv {
	for i := 0; i < 64; i += 8 {
		h = h.byte(byte(v >> i))
	}
	return h
}

// rels folds each named relation's name and RelID.
func (h fnv) rels(db *Database, names []string) fnv {
	for _, name := range names {
		for i := 0; i < len(name); i++ {
			h = h.byte(name[i])
		}
		h = h.byte(0) // ends the name; the ID after it has one length
		for _, b := range db.relIDs[name] {
			h = h.byte(b)
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
