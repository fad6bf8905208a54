package querybody

import (
	"strings"
	"testing"
)

// TestProbe: the router's read of a body is Scan's where Scan takes it, and
// encoding/json's lenient one where it does not — a case-folded key still
// routes, an unknown field is left for the replica to refuse — and a body
// that is no JSON object is an error naming the probe, as the router's 400
// always quoted it.
func TestProbe(t *testing.T) {
	for _, c := range []struct {
		body string
		want Request
	}{
		{`{"database":"graph","query":"(x, y). E(x, y) & E(y, x)","stream":true,"limit":3}`,
			Request{Database: "graph", Query: "(x, y). E(x, y) & E(y, x)", Stream: true, Limit: 3}},
		{`{"Database":"graph","QUERY":"(x). P(x)","Stream":true}`, Request{Database: "graph", Query: "(x). P(x)", Stream: true}},
		{`{"database":"graph","query":"(x). P(x)","bogus":[1,{"a":null}]}`, Request{Database: "graph", Query: "(x). P(x)"}},
	} {
		got, err := Probe([]byte(c.body))
		if err != nil || got != c.want {
			t.Errorf("Probe(%s) = %+v, %v; want %+v", c.body, got, err, c.want)
		}
	}
	if _, err := Probe([]byte(`{"database":7}`)); err == nil || !strings.Contains(err.Error(), "queryProbe.database") {
		t.Errorf("Probe of a number for database: %v, want encoding/json's error naming queryProbe.database", err)
	}
}
