package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// fanResult is one replica's outcome in an update fan-out.
type fanResult struct {
	m    *member
	code int
	body []byte
	err  error
}

// updateAggregate is the router's 200 response to a fanned-out update.
type updateAggregate struct {
	Database string `json:"database"`
	// Version and Fingerprint are the fleet consensus after the update.
	Version     uint64                     `json:"version"`
	Fingerprint string                     `json:"fingerprint"`
	Replicas    map[string]json.RawMessage `json:"replicas"`
	// Skipped lists replicas that were evicted at fan-out time and did NOT
	// receive the update: they serve stale data until restarted against
	// fresh inputs (see OPERATIONS.md, "failure semantics").
	Skipped []string `json:"skipped,omitempty"`
	// Diverged is set when healthy replicas disagree on the resulting version
	// or fingerprint. A fingerprint names content, so they hold different
	// data (replicas that applied commuting updates in either order agree) —
	// the fleet needs operator attention.
	Diverged bool `json:"diverged,omitempty"`
}

// handleUpdate fans a /db/{name}/update body out to every healthy replica
// (every replica holds a full copy of every database, so updates are
// all-or-degraded, not sharded). Outcomes:
//
//   - every healthy replica applied it: 200 with the aggregate (and a
//     divergence flag if fingerprints disagree);
//   - any replica returned 409: 409 relayed with per-replica bodies — the
//     base_version optimistic-concurrency contract, fleet-wide;
//   - any replica failed outright: 502 naming the replica, with the
//     applied/failed split so the operator can reconcile.
func (rt *Router) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.metrics.updates.Inc()
	body, hdr, ok := readRequest(w, r, maxUpdateBody)
	if !ok {
		return
	}
	var healthy []*member
	var skipped []string
	for _, m := range rt.members {
		if m.healthy.Load() {
			healthy = append(healthy, m)
		} else {
			skipped = append(skipped, m.url)
		}
	}
	if len(healthy) == 0 {
		failJSON(w, http.StatusServiceUnavailable, "no healthy replicas")
		return
	}

	results := make([]fanResult, len(healthy))
	var wg sync.WaitGroup
	for i, m := range healthy {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			resp, err := rt.do(r.Context(), m, "/db/"+url.PathEscape(name)+"/update", hdr, body)
			if err != nil {
				results[i] = fanResult{m: m, err: err}
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			results[i] = fanResult{m: m, code: resp.StatusCode, body: b}
		}(i, m)
	}
	wg.Wait()

	var applied, conflicted []fanResult
	var failed []fanResult
	for _, res := range results {
		switch {
		case res.err != nil:
			failed = append(failed, res)
		case res.code == http.StatusOK:
			applied = append(applied, res)
		case res.code == http.StatusConflict:
			conflicted = append(conflicted, res)
		default:
			failed = append(failed, res)
		}
	}

	if len(failed) > 0 {
		rt.metrics.fanoutFailures.Inc()
		detail := func(res fanResult) string {
			if res.err != nil {
				return res.err.Error()
			}
			return fmt.Sprintf("status %d: %s", res.code, strings.TrimSpace(string(res.body)))
		}
		failures := make(map[string]string, len(failed))
		var appliedURLs []string
		for _, res := range failed {
			failures[res.m.url] = detail(res)
		}
		for _, res := range applied {
			appliedURLs = append(appliedURLs, res.m.url)
		}
		sort.Strings(appliedURLs)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error":   fmt.Sprintf("update fan-out: replica %s: %s", failed[0].m.url, detail(failed[0])),
			"failed":  failures,
			"applied": appliedURLs,
			"skipped": skipped,
		})
		return
	}

	if len(conflicted) > 0 {
		// Optimistic concurrency: at least one replica's current version
		// does not match base_version. Relay the conflict with every
		// replica's own report so the client can reconcile and retry.
		bodies := make(map[string]json.RawMessage, len(results))
		for _, res := range results {
			bodies[res.m.url] = rawOrString(res.body)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error":    fmt.Sprintf("base_version conflict on %d of %d replicas", len(conflicted), len(results)),
			"replicas": bodies,
		})
		return
	}

	agg := updateAggregate{
		Database: name,
		Replicas: make(map[string]json.RawMessage, len(applied)),
		Skipped:  skipped,
	}
	type upResp struct {
		Version     uint64 `json:"version"`
		Fingerprint string `json:"fingerprint"`
	}
	var first *upResp
	for _, res := range applied {
		agg.Replicas[res.m.url] = rawOrString(res.body)
		var ur upResp
		if err := json.Unmarshal(res.body, &ur); err != nil {
			agg.Diverged = true
			continue
		}
		if first == nil {
			first = &ur
			agg.Version, agg.Fingerprint = ur.Version, ur.Fingerprint
		} else if ur.Fingerprint != first.Fingerprint || ur.Version != first.Version {
			agg.Diverged = true
		}
	}
	if agg.Diverged {
		rt.metrics.divergence.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(agg)
}

// rawOrString embeds upstream bytes as raw JSON when they parse, else as a
// JSON string, so aggregate responses stay valid either way.
func rawOrString(b []byte) json.RawMessage {
	if json.Valid(b) && len(bytes.TrimSpace(b)) > 0 {
		return json.RawMessage(b)
	}
	quoted, _ := json.Marshal(string(b))
	return json.RawMessage(quoted)
}

// fetched is one member's answer to a fleet-wide GET.
type fetched struct {
	m    *member
	body []byte
	err  error // errEvicted for a member out of the ring
}

const errEvicted = memberError("evicted")

// getAll GETs path from every healthy member concurrently and returns the
// answers in member order, so what the caller folds them into does not
// depend on which replica answered first.
func (rt *Router) getAll(ctx context.Context, path string) []fetched {
	out := make([]fetched, len(rt.members))
	var wg sync.WaitGroup
	for i, m := range rt.members {
		out[i] = fetched{m: m, err: errEvicted}
		if !m.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].body, out[i].err = m.get(ctx, path)
		}()
	}
	wg.Wait()
	return out
}

// get reads the body of one GET, at most 8 MiB of it.
func (m *member) get(ctx context.Context, path string) ([]byte, error) {
	resp, err := m.roundTrip(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}

// notCounters are the /stats fields that describe a replica (its databases,
// uptime and build): no fleet sum, they stay in each replica's own body.
var notCounters = []string{"databases", "uptime_seconds", "build"}

// handleStats scatter-gathers every healthy replica's /stats and sums the
// numeric counters into a fleet aggregate, alongside each replica's raw
// report and the router's own counters.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	fleet := make(map[string]any)
	replicas := make(map[string]any)
	for _, f := range rt.getAll(r.Context(), "/stats") {
		var stats map[string]any
		err := f.err
		if err == nil {
			err = json.Unmarshal(f.body, &stats)
		}
		if err != nil {
			replicas[f.m.url] = map[string]string{"error": err.Error()}
			continue
		}
		replicas[f.m.url] = stats
		sumInto(fleet, stats)
	}
	for _, k := range notCounters {
		delete(fleet, k)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"fleet":    fleet,
		"replicas": replicas,
		"router":   rt.statsSnapshot(),
	})
}

// sumInto folds src into acc: numbers add, nested objects recurse, and any
// other type keeps the first value seen (names, booleans).
func sumInto(acc map[string]any, src map[string]any) {
	for k, v := range src {
		switch sv := v.(type) {
		case float64:
			if av, ok := acc[k].(float64); ok {
				acc[k] = av + sv
			} else {
				acc[k] = sv
			}
		case map[string]any:
			am, ok := acc[k].(map[string]any)
			if !ok {
				am = make(map[string]any)
				acc[k] = am
			}
			sumInto(am, sv)
		default:
			if _, seen := acc[k]; !seen {
				acc[k] = v
			}
		}
	}
}

// handleMetrics renders the router's own bvqrouter_* families followed by
// the fleet total of every healthy replica's bvqd_* families
// (metrics.Merge: samples with identical name and labels summed, in
// first-seen order over the replicas in member order).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = rt.metrics.registry.WriteTo(w)
	var pages [][]metrics.Family
	for _, f := range rt.getAll(r.Context(), "/metrics") {
		if f.err == errEvicted {
			continue
		}
		var fams []metrics.Family
		err := f.err
		if err == nil {
			fams, err = metrics.ParseText(bytes.NewReader(f.body))
		}
		if err != nil {
			rt.metrics.scrapeFailures.Inc()
			continue
		}
		pages = append(pages, fams)
	}
	_, _ = metrics.WriteText(w, metrics.Merge(pages...))
}

// handleHealthz reports router liveness: healthy while at least one
// replica is serving.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := rt.healthyCount()
	code := http.StatusOK
	if healthy == 0 {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":     map[bool]string{true: "ok", false: "no healthy replicas"}[healthy > 0],
		"healthy":    healthy,
		"configured": len(rt.members),
	})
}
