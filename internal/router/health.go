package router

import (
	"context"
	"io"
	"net/http"
	"time"
)

// healthLoop probes every member's /healthz each interval. threshold
// consecutive failures evict a member from the ring; one success readmits
// it (and clears any forwarding-time eviction). Probes run with a deadline
// of the interval, capped at two seconds, so a hung replica cannot stall
// the loop into missing a real outage.
func (rt *Router) healthLoop(interval time.Duration, threshold int) {
	defer close(rt.healthDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	probeTimeout := min(interval, 2*time.Second)
	for {
		select {
		case <-rt.healthStop:
			return
		case <-t.C:
		}
		for _, m := range rt.members {
			if rt.probe(m, probeTimeout) {
				m.probeFails = 0
				rt.markUp(m)
			} else {
				m.probeFails++
				if m.probeFails >= threshold {
					rt.markDown(m, errProbeFailed)
				}
			}
		}
	}
}

type memberError string

func (e memberError) Error() string { return string(e) }

const errProbeFailed = memberError("health probes failed")

// probe reports whether one /healthz round-trip succeeded.
func (rt *Router) probe(m *member, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := m.roundTrip(ctx, http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	return resp.StatusCode == http.StatusOK
}
