package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/relation"
)

// UpdateRequest is the /db/{name}/update request body: a batch of tuple-level
// inserts and deletes applied as one atomic snapshot transition.
type UpdateRequest struct {
	// Updates lists per-relation changes. Within the whole batch, deletes
	// apply before inserts, so a tuple in both lists ends up present.
	Updates []UpdateEntry `json:"updates"`
	// Indices interprets tuple components as domain indices 0..n−1 instead
	// of raw domain values (the /query "indices" convention).
	Indices bool `json:"indices,omitempty"`
	// BaseVersion, when set, makes the update conditional: if the database's
	// current version differs, nothing is applied and the response is 409
	// (optimistic concurrency for read-modify-write clients).
	BaseVersion *uint64 `json:"base_version,omitempty"`
}

// UpdateEntry is one relation's changes in an UpdateRequest.
type UpdateEntry struct {
	Relation string  `json:"relation"`
	Insert   [][]int `json:"insert,omitempty"`
	Delete   [][]int `json:"delete,omitempty"`
}

// UpdateResponse is the /db/{name}/update success body.
type UpdateResponse struct {
	RequestID string `json:"request_id"`
	Database  string `json:"database"`
	// FromVersion and Version are the snapshot versions before and after;
	// equal (with Noop set) when the batch changed nothing effectively.
	FromVersion uint64 `json:"from_version"`
	Version     uint64 `json:"version"`
	// Fingerprint is the new snapshot's content identity (database.Fingerprint):
	// equal content, equal fingerprint, however the snapshot was reached.
	Fingerprint string `json:"fingerprint"`
	Noop        bool   `json:"noop,omitempty"`
	// Relations lists the effectively changed relations; Inserted/Deleted
	// count effective tuple changes (no-op inserts/deletes excluded).
	Relations []string `json:"relations"`
	Inserted  int      `json:"inserted"`
	Deleted   int      `json:"deleted"`
	// Cache reports the result-cache triage this update performed.
	Cache     UpdateCacheJSON `json:"cache"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// UpdateCacheJSON is the per-update result-cache triage of every live entry
// the database stored for the outgoing content: carried (footprint disjoint
// from the delta, or the answer for the new content cached already),
// maintained (re-derived by delta-restart under the new content's key) or
// invalidated (not re-derived). No entry is dropped: each stays under the
// content it read until the LRU evicts it.
type UpdateCacheJSON struct {
	Carried     int `json:"carried"`
	Maintained  int `json:"maintained"`
	Invalidated int `json:"invalidated"`
}

// handleUpdate applies a tuple-level update batch to a served database:
// validate the wire payload (400 naming the offending field), check the
// optional base_version (409 on mismatch), build the new snapshot
// (database.Apply), triage the result cache against the delta, and only then
// swap the snapshot pointer — queries admitted before the swap finish on the
// old snapshot, queries after it see the new one, and nobody ever observes a
// half-updated cache for the new content.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := clientRequestID(r)
	if seq := s.reqSeq.Add(1); reqID == "" {
		reqID = fmt.Sprintf("%08x", seq)
	}
	w.Header().Set("X-Request-Id", reqID)

	name := r.PathValue("name")
	fail := func(code int, err error) {
		s.metrics.statuses.With(statusLabel(code)).Inc()
		s.fail(w, code, err, nil, reqID)
	}

	nd, ok := s.dbs[name]
	if !ok {
		fail(http.StatusNotFound, fmt.Errorf("unknown database %q", name))
		return
	}

	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		fail(bodyErrorStatus(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Updates) == 0 {
		fail(http.StatusBadRequest, fmt.Errorf("updates: must contain at least one entry"))
		return
	}
	// Validate against the current snapshot. Signature, domain and index map
	// are fixed per lineage, so a concurrent update cannot un-validate what
	// passes here.
	ups, err := convertUpdates(nd.snap.Load(), req.Updates, req.Indices)
	if err != nil {
		fail(http.StatusBadRequest, err)
		return
	}

	// The snapshot lock serializes updates with each other: the triage below
	// reasons about exactly one delta.
	nd.mu.Lock()
	defer nd.mu.Unlock()
	snap := nd.snap.Load()
	if req.BaseVersion != nil && *req.BaseVersion != snap.Version() {
		fail(http.StatusConflict, fmt.Errorf("base_version %d does not match current version %d",
			*req.BaseVersion, snap.Version()))
		return
	}
	next, delta, err := snap.Apply(ups)
	if err != nil {
		// Unreachable after convertUpdates, kept as a guard.
		fail(http.StatusBadRequest, err)
		return
	}

	resp := UpdateResponse{
		RequestID:   reqID,
		Database:    name,
		FromVersion: delta.FromVersion,
		Version:     delta.Version,
		Relations:   delta.Relations(),
	}
	resp.Inserted, resp.Deleted = delta.Counts()
	if delta.Empty() {
		resp.Noop = true
		resp.Fingerprint = fmt.Sprintf("%016x", snap.Fingerprint())
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		s.metrics.statuses.With("200").Inc()
		writeJSON(w, http.StatusOK, resp)
		return
	}

	resp.Cache = s.triageResults(r, nd, snap, next, delta)
	// Swap last: the cache for the new content is fully populated before any
	// query can mint a key against it — no cold-cache window.
	nd.snap.Store(next)

	s.metrics.updates.Inc()
	resp.Fingerprint = fmt.Sprintf("%016x", next.Fingerprint())
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	s.metrics.statuses.With("200").Inc()
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "database updated",
		slog.String("request_id", reqID),
		slog.String("database", name),
		slog.Uint64("version", resp.Version),
		slog.Int("inserted", resp.Inserted),
		slog.Int("deleted", resp.Deleted),
		slog.Int("carried", resp.Cache.Carried),
		slog.Int("maintained", resp.Cache.Maintained),
		slog.Int("invalidated", resp.Cache.Invalidated))
	writeJSON(w, http.StatusOK, resp)
}

// convertUpdates validates the wire entries against db and converts them to
// database.Update values (raw domain values). Errors name the offending wire
// field, e.g. "updates[1].insert[0]: ...".
func convertUpdates(db *database.Database, entries []UpdateEntry, indices bool) ([]database.Update, error) {
	out := make([]database.Update, 0, len(entries))
	for i, e := range entries {
		if e.Relation == "" {
			return nil, fmt.Errorf("updates[%d].relation: missing relation name", i)
		}
		arity, err := db.Arity(e.Relation)
		if err != nil {
			return nil, fmt.Errorf("updates[%d].relation: unknown relation %q", i, e.Relation)
		}
		conv := func(field string, rows [][]int) ([]relation.Tuple, error) {
			ts := make([]relation.Tuple, 0, len(rows))
			for j, row := range rows {
				if len(row) != arity {
					return nil, fmt.Errorf("updates[%d].%s[%d]: relation %q has arity %d, got %d components",
						i, field, j, e.Relation, arity, len(row))
				}
				t := make(relation.Tuple, len(row))
				for c, v := range row {
					if indices {
						if v < 0 || v >= db.Size() {
							return nil, fmt.Errorf("updates[%d].%s[%d]: index %d out of range [0,%d)",
								i, field, j, v, db.Size())
						}
						t[c] = db.Value(v)
						continue
					}
					if _, ok := db.Index(v); !ok {
						return nil, fmt.Errorf("updates[%d].%s[%d]: value %d is not in the domain (domains are fixed per database)",
							i, field, j, v)
					}
					t[c] = v
				}
				ts = append(ts, t)
			}
			return ts, nil
		}
		up := database.Update{Relation: e.Relation}
		if up.Insert, err = conv("insert", e.Insert); err != nil {
			return nil, err
		}
		if up.Delete, err = conv("delete", e.Delete); err != nil {
			return nil, err
		}
		out = append(out, up)
	}
	return out, nil
}

// triageResults decides under delta the fate of every live result nd stored
// for the outgoing snapshot's content, populating the cache for the new
// snapshot BEFORE it is swapped in. A result key names the content of the
// query's footprint, so no entry is ever removed here: one the delta misses
// keeps a valid key and is carried by being left alone; one it hits stays
// under its old key (right whenever that content returns) and is carried too
// when next's answer is already cached — a content coming back — or else
// re-derived under next's key when delta-restart maintenance applies, or
// counted invalidated. Entries of any other content are not this delta's to
// decide: it does not lead from their content to next. Called with nd.mu held.
func (s *Server) triageResults(r *http.Request, nd *namedDB, snap, next *database.Database, delta *database.Delta) UpdateCacheJSON {
	var out UpdateCacheJSON
	changed := delta.Relations()
	// A footprint's content in snap (as the key prefix that names it) and in
	// next is computed once an update, not once an entry, and snap's side is
	// what the previous update computed for its next. Entries of one plan
	// share its Footprint slice, so its first element identifies it; the
	// comparison on a hit guards the rest.
	seen := make(map[*string]*footprintContents, len(nd.contents))
	contentsOf := func(rels []string) *footprintContents {
		var id *string
		if len(rels) > 0 {
			id = &rels[0]
		}
		if c, ok := seen[id]; ok && slices.Equal(c.rels, rels) {
			return c
		}
		c := &footprintContents{rels: rels}
		if old, ok := nd.contents[id]; ok && slices.Equal(old.rels, rels) {
			c.from = old.to
		} else {
			c.from = contentIn(snap, rels)
		}
		c.to = c.from
		if slices.ContainsFunc(rels, func(rel string) bool { return slices.Contains(changed, rel) }) {
			c.to = contentIn(next, rels)
		}
		seen[id] = c
		return c
	}
	// keep runs under the cache lock: only the entries that need work are
	// copied out of it.
	s.results.Each(func(key string, res *cache.Result) bool {
		if res.DB != nd.name || !strings.HasPrefix(key, contentsOf(res.Footprint).from.prefix) {
			return false
		}
		if !res.Overlaps(changed) {
			out.Carried++
			return false
		}
		return true
	}, func(key string, res cache.Result) {
		nextKey := cache.WithContent(key, contentsOf(res.Footprint).to.id)
		if s.results.Has(nextKey) {
			out.Carried++
			return
		}
		base, reason := res.Baseline, ""
		switch {
		case base == nil:
			reason = "no_plan"
		case !eval.CanMaintain(base.Plan, delta):
			reason = "delta_polarity"
		default:
			// Eager delta-restart maintenance against the new snapshot, while
			// queries still run on the old one: the maintained answer is in the
			// cache before the swap, so the entry never goes cold.
			opts := base.Opts
			opts.Nodes = s.nodes
			ans, st, state, err := eval.EvalPlan(r.Context(), base.Plan, next, &opts, base.State, true)
			if err != nil {
				reason = "maintenance_failed"
				break
			}
			s.foldEvalStats(st)
			res.Answer, res.Stats = ans, st
			res.Baseline = &cache.Baseline{Plan: base.Plan, State: state, Opts: base.Opts}
			s.store(nextKey, res, next.Size())
			s.metrics.maintained.Inc()
			out.Maintained++
			return
		}
		s.metrics.invalidations.With(reason).Inc()
		out.Invalidated++
	})
	s.metrics.carried.Add(int64(out.Carried))
	nd.contents = seen
	return out
}

// footprintContents is one footprint's content before and after an update.
type footprintContents struct {
	rels     []string
	from, to content
}

// content is a footprint's database.ContentID and the result-key prefix that
// names it.
type content struct {
	prefix string
	id     uint64
}

func contentIn(db *database.Database, rels []string) content {
	id := db.ContentID(rels)
	return content{cache.ContentPrefix(id), id}
}
