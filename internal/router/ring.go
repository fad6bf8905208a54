// Package router implements the bvqrouter front tier: a consistent-hash
// router that spreads /query load across a fleet of bvqd replicas, fans
// /db/{name}/update out to every replica, scatter-gathers /stats and
// /metrics into fleet aggregates, and turns the single-node admission
// contract (429 + Retry-After) into fleet-level retry, backoff and hedging.
//
// Every replica serves full copies of every database — the ring shards
// *queries*, not data. Routing on (database, query text) sends repeats of
// the same query to the same replica, so each replica's result cache and
// churn index warm on a stable slice of the workload instead of the whole
// mix diluted N ways.
//
// A query's answer does not depend on where it runs, so the router only
// moves bytes, and does so cheaply: upstream.go is its HTTP/1.1 client (one
// synchronous round trip on a kept connection per hop, no net/http client),
// relay forwards a JSON answer with its length, and relayStream writes each
// read of a stream whole.
package router

import (
	"fmt"
	"slices"
	"sort"
)

// DefaultVnodes is the number of ring points per member. 128 keeps the
// per-member load imbalance in the low single-digit percent range while
// the ring stays small enough to rebuild on every membership change.
const DefaultVnodes = 128

// Ring is an immutable consistent-hash ring over member names. Build one
// with NewRing; on membership change, build a new Ring from the new member
// set — construction is deterministic, so two routers configured with the
// same members agree on every assignment, and removing a member only moves
// the keys that member owned (minimal movement).
type Ring struct {
	points  []ringPoint // sorted by hash
	members int         // distinct ones: a full preference list is that long
}

type ringPoint struct {
	hash   uint64
	member string
	id     int // the member's index at construction: an integer to compare
}

// NewRing builds a ring with vnodes points per member (vnodes <= 0 means
// DefaultVnodes). Member order does not matter; the ring depends only on
// the set.
func NewRing(vnodes int, members []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{points: make([]ringPoint, 0, vnodes*len(members))}
	distinct := slices.Clone(members)
	slices.Sort(distinct)
	r.members = len(slices.Compact(distinct))
	for id, m := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", m, v)), member: m, id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical point hashes across members are astronomically rare but
		// must tie-break deterministically for cross-router agreement.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Lookup returns up to n distinct members in preference order for key: the
// first owns the key; the rest are the fallbacks a router walks when the
// owner sheds or fails. n <= 0 returns every member, in preference order.
func (r *Ring) Lookup(key string, n int) []string { return r.AppendLookup(nil, key, n) }

// AppendLookup is Lookup appending to dst, so that a caller with a buffer —
// the router has one request's on its stack — allocates nothing. A fleet is a
// handful of members: a scan of those already collected is the duplicate test.
func (r *Ring) AppendLookup(dst []string, key string, n int) []string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if n <= 0 || n > r.members {
		n = r.members // every member: the walk ends with the last, not with the ring
	}
	// A member's points sit in runs (FNV-1a spreads a trailing "#v" thinly), so
	// most steps end at the comparison with the point before.
	for from, last := len(dst), -1; len(dst)-from < n; i++ {
		if i == len(r.points) {
			i = 0
		}
		p := &r.points[i]
		if p.id == last {
			continue
		}
		if last = p.id; !slices.Contains(dst[from:], p.member) {
			dst = append(dst, p.member)
		}
	}
	return dst
}

// Owner returns the single preferred member for key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	own := r.Lookup(key, 1)
	if len(own) == 0 {
		return ""
	}
	return own[0]
}

// hash64 is FNV-1a (hash/fnv's New64a) over the string's bytes, in place.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// QueryKey is the ring key for one query: the database name and the query
// text. Sharding on both gives result-cache affinity — the same query on
// the same database always lands on the same healthy replica.
func QueryKey(database, query string) string {
	return database + "\x00" + query
}
