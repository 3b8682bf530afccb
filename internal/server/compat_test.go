package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestLegacyFieldIgnored: clients written against the retired alternate
// engine still send "legacy": true. The server must accept such bodies,
// answer byte-for-byte as if the field were absent, and share one memoized
// run (profile) or one content address (jobs) with the field-less request.
func TestLegacyFieldIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := compileSession(t, ts.URL, workSrc)

	profile := func(body map[string]any) []byte {
		t.Helper()
		code, out := postJSON(t, ts.URL+"/v2/profile", body)
		if code != http.StatusOK {
			t.Fatalf("profile %v: status %d: %s", body, code, out)
		}
		return out
	}
	profile(map[string]any{"session": id}) // the one run
	withField := profile(map[string]any{"session": id, "legacy": true})
	without := profile(map[string]any{"session": id})
	if string(withField) != string(without) {
		t.Errorf("legacy field changed the response:\n%s\nvs\n%s", withField, without)
	}
	if hits, misses := metricValue(t, ts.URL, "lowutil_profile_cache_hits_total"),
		metricValue(t, ts.URL, "lowutil_profile_cache_misses_total"); hits != 2 || misses != 1 {
		t.Errorf("profile memo: %d hits, %d misses; want 2 hits on 1 run", hits, misses)
	}

	submit := func(key string, spec map[string]any) []byte {
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
		return bs.Jobs[0].Result.Payload
	}
	a := submit("without-field", map[string]any{"kind": "profile", "source": workSrc})
	b := submit("with-field", map[string]any{"kind": "profile", "source": workSrc, "legacy": true})
	if compact(t, a) != compact(t, b) {
		t.Errorf("legacy field changed the job payload:\n%s\nvs\n%s", a, b)
	}
	if hits, misses := metricValue(t, ts.URL, "lowutil_job_result_hits_total"),
		metricValue(t, ts.URL, "lowutil_job_result_misses_total"); hits != 1 || misses != 1 {
		t.Errorf("job result store: %d hits, %d misses; want the second spec served from the first's content address", hits, misses)
	}
}
