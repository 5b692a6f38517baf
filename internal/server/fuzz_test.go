package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"sunfloor3d"
	"sunfloor3d/internal/server"
)

// FuzzSynthesizeRequest decodes arbitrary bodies the way the submit handler
// does. Decoding must never panic, and a request the daemon would accept
// (its design, engine options and fingerprint all resolve) must survive
// being marshalled and decoded again under the same fingerprint: that
// round trip is the CLI's -server path.
func FuzzSynthesizeRequest(f *testing.F) {
	for _, body := range []string{
		`{`,
		`{}`,
		`{"genn":"x"}`,
		`{"cores_spec":"x"}`,
		`{"gen":"shape=nosuch"}`,
		fmt.Sprintf(`{"gen":%q}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"cores_spec":"x","comm_spec":"y"}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"frequencies_mhz":[400,800]}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"weight":5,"parallelism":2}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"phase":"phase9"}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"switch_layer":"median"}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"power_weight":1}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"alpha":7.5}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"sparing":{"process":"nope","target_yield":0.99}}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"sparing":{"process":"wafer-level-A","target_yield":0.99},"fault":{"plans":4,"seed":7}}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"fault":{"plans":0,"exhaustive_max":0}}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"contention":true}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"space":{"axes":[{"name":"switch_count","values":[1e300]}]}}}`, fastGen),
		fmt.Sprintf(`{"gen":%q,"options":{"space":{"axes":[{"name":"freq_mhz","values":[400,600]},{"name":"switch_count","values":[2,3]}],"no_prune":true}}}`, fastGen),
		`{"gen":"shape=hotspot,cores=24,layers=3,seed=11,hubs=2","options":{"require_latency_met":true}}`,
		specBody(f),
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(body)
		if err != nil {
			return
		}
		// Generating a large design takes seconds (the generator floorplans
		// it), which would stall the fuzzer on the generator instead of the
		// decoder; such requests are left out.
		if spec, err := sunfloor3d.ParseGenSpec(req.Gen); req.Gen != "" && err == nil && spec.Cores > maxFuzzCores {
			return
		}
		key, ok := requestKey(req)
		if !ok {
			return
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshalling an accepted request: %v", err)
		}
		again, err := decodeRequest(wire)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", wire, err)
		}
		if key2, ok := requestKey(again); !ok || key2 != key {
			t.Fatalf("request %s fingerprints as %s after a round trip through %s, was %s", body, key2, wire, key)
		}
	})
}

// maxFuzzCores bounds the generated designs FuzzSynthesizeRequest builds.
const maxFuzzCores = 24

// decodeRequest decodes a body the way the submit handler does.
func decodeRequest(body []byte) (server.SynthesizeRequest, error) {
	var req server.SynthesizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// requestKey resolves a request the way the submit handler does and
// reports its fingerprint, or false when the daemon would answer 400.
func requestKey(req server.SynthesizeRequest) (string, bool) {
	design, err := req.Design()
	if err != nil {
		return "", false
	}
	opts, err := req.Options.EngineOptions()
	if err != nil {
		return "", false
	}
	key, err := sunfloor3d.Fingerprint(design, opts...)
	return key, err == nil
}

// specBody is the fastGen design as a spec-text request body, the form a
// CLI run from spec files posts.
func specBody(tb testing.TB) string {
	tb.Helper()
	spec, err := sunfloor3d.ParseGenSpec(fastGen)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := sunfloor3d.GenerateBenchmark(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var cores, comm bytes.Buffer
	if err := sunfloor3d.WriteDesign(&cores, &comm, b.Graph3D); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(server.SynthesizeRequest{CoresSpec: cores.String(), CommSpec: comm.String()})
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}
