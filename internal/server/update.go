package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"time"

	"repro/internal/database"
	"repro/internal/relation"
)

// UpdateRequest is the /db/{name}/update request body: a batch of tuple-level
// inserts and deletes applied as one atomic snapshot transition.
type UpdateRequest struct {
	// Updates lists per-relation changes. Within the whole batch, deletes
	// apply before inserts, so a tuple in both lists ends up present.
	Updates []UpdateEntry `json:"updates"`
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
	ElapsedMS float64  `json:"elapsed_ms"`
}

// chainLen is how many updates back a result-cache miss may look for the one
// that last touched its footprint: one step serves churn that alternates an
// insert with its delete, the rest updates of relations it does not read. A
// step keeps its two snapshots alive; they share what the update left alone.
const chainLen = 8

// step is one effective update of a lineage: the snapshot it applied to, the
// snapshot it made, and the delta between them.
type step struct {
	from, to *database.Database
	delta    *database.Delta
}

// lastTouch returns the newest step up to snap whose delta changes one of
// rels, or nil when the chain does not reach snap or no step on it does.
// Between that step and snap the content of rels stays as the step left it.
func (nd *namedDB) lastTouch(snap *database.Database, rels []string) *step {
	chain := nd.chain.Load()
	if chain == nil {
		return nil
	}
	steps := *chain
	for i := slices.IndexFunc(steps, func(st step) bool { return st.to == snap }); i >= 0; i-- {
		if slices.ContainsFunc(rels, func(rel string) bool { _, ok := steps[i].delta.Rels[rel]; return ok }) {
			return &steps[i]
		}
	}
	return nil
}

// handleUpdate applies a tuple-level update batch to a served database:
// validate the wire payload (400 naming the offending field), check the
// optional base_version (409 on mismatch), build the new snapshot
// (database.Apply), record the step in the lineage's chain, and swap the
// snapshot pointer — queries admitted before the swap finish on the old
// snapshot, queries after it see the new one. It does no result-cache work: a
// key names the content its query read, so no entry goes wrong, and the first
// miss that needs an answer for the new content maintains it (Server.resume).
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
	ups, err := convertUpdates(nd.snap.Load(), req.Updates)
	if err != nil {
		fail(http.StatusBadRequest, err)
		return
	}

	// The snapshot lock serializes updates with each other: each step of the
	// chain starts where the one before it ended.
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

	// The chain is copied on write, and the step goes in before the swap: a
	// query that loads next finds how it was reached.
	steps := make([]step, 0, chainLen)
	if old := nd.chain.Load(); old != nil {
		steps = append(steps, (*old)[max(len(*old)+1-chainLen, 0):]...)
	}
	steps = append(steps, step{from: snap, to: next, delta: delta})
	nd.chain.Store(&steps)
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
		slog.Int("deleted", resp.Deleted))
	writeJSON(w, http.StatusOK, resp)
}

// convertUpdates validates the wire entries against db and converts them to
// database.Update values. Errors name the offending wire field, e.g.
// "updates[1].insert[0]: ...".
func convertUpdates(db *database.Database, entries []UpdateEntry) ([]database.Update, error) {
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
