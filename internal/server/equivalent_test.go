package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"lowutil/internal/jobs"
)

// TestEquivalentRequestsShareOneRun: two requests whose canonical forms
// are equal ask for the same work, so the second is answered from the
// first's memoized run (synchronous endpoints) or stored result (jobs).
// The pairs differ only by spelled-out defaults or by options their kind
// does not read: audit's default mode and top, prune under traditional
// slicing (which the facade ignores), profile's default s and n, and
// options of the other analysis family.
func TestEquivalentRequestsShareOneRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)

	post := func(endpoint string, body map[string]any) map[string]any {
		t.Helper()
		body["session"] = id
		code, out := postJSON(t, ts.URL+"/v2/"+endpoint, body)
		if code != http.StatusOK {
			t.Fatalf("%s %v: status %d: %s", endpoint, body, code, out)
		}
		var resp map[string]any
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	syncPairs := []struct {
		endpoint      string
		first, second map[string]any
	}{
		{"audit", map[string]any{}, map[string]any{"mode": "rta", "top": 10}},
		{"profile", map[string]any{"traditional": true}, map[string]any{"traditional": true, "prune": true}},
		{"report", map[string]any{}, map[string]any{"slots": 16, "tree_height": 4, "mode": "cha", "objctx": true}},
	}
	for _, p := range syncPairs {
		a, b := post(p.endpoint, p.first), post(p.endpoint, p.second)
		if b["cache_hit"] != true {
			t.Errorf("%s %v after %v: cache_hit = %v, want true", p.endpoint, p.second, p.first, b["cache_hit"])
		}
		delete(a, "cache_hit")
		delete(b, "cache_hit")
		if ja, jb := mustJSON(t, a), mustJSON(t, b); ja != jb {
			t.Errorf("%s: equivalent requests answered differently:\n%s\nvs\n%s", p.endpoint, ja, jb)
		}
	}

	jobPairs := []struct{ first, second map[string]any }{
		{
			map[string]any{"kind": "profile", "source": workSrc},
			map[string]any{"kind": "profile", "source": workSrc, "slots": 16, "tree_height": 4, "mode": "cha", "objctx": true},
		},
		{
			map[string]any{"kind": "audit", "source": workSrc},
			map[string]any{"kind": "audit", "source": workSrc, "main_class": "Main", "slots": 8, "traditional": true, "top": 10},
		},
	}
	submit := func(key string, spec map[string]any) (jobs.Spec, []byte) {
		t.Helper()
		code, out := postJSON(t, ts.URL+"/v2/jobs", map[string]any{"key": key, "jobs": []any{spec}})
		if code != http.StatusOK {
			t.Fatalf("submit %v: status %d: %s", spec, code, out)
		}
		var jr jobsResponse
		if err := json.Unmarshal(out, &jr); err != nil {
			t.Fatal(err)
		}
		bs := waitBatch(t, ts.URL, jr.Batch)
		if len(bs.Jobs) != 1 || bs.Jobs[0].Result == nil {
			t.Fatalf("batch %s: %+v", key, bs)
		}
		var decoded jobs.Spec
		if err := json.Unmarshal(mustJSONBytes(t, spec), &decoded); err != nil {
			t.Fatal(err)
		}
		return decoded, bs.Jobs[0].Result.Payload
	}
	for i, p := range jobPairs {
		a, pa := submit("first-"+string(rune('a'+i)), p.first)
		b, pb := submit("second-"+string(rune('a'+i)), p.second)
		if a.Hash() == b.Hash() {
			t.Fatalf("pair %d: the raw specs already hash alike; the pair tests nothing", i)
		}
		if ha, hb := canonical(a).Hash(), canonical(b).Hash(); ha != hb {
			t.Errorf("pair %d: canonical hashes differ: %s vs %s", i, ha, hb)
		}
		if compact(t, pa) != compact(t, pb) {
			t.Errorf("pair %d: payloads differ:\n%s\nvs\n%s", i, pa, pb)
		}
	}
	n := int64(len(jobPairs))
	if hits, misses := metricValue(t, ts.URL, "lowutil_job_result_hits_total"),
		metricValue(t, ts.URL, "lowutil_job_result_misses_total"); hits != n || misses != n {
		t.Errorf("job result store: %d hits, %d misses; want %d of each (one entry per pair)", hits, misses, n)
	}

}

func mustJSONBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustJSON(t *testing.T, v any) string { return string(mustJSONBytes(t, v)) }
