package server

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"lowutil"
	"lowutil/client"
)

// jsonKeys lists the JSON object keys a struct type encodes and decodes,
// descending into embedded structs the way encoding/json promotes their
// fields and skipping json:"-" fields.
func jsonKeys(typ reflect.Type) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case name == "-":
		case f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct:
			keys = append(keys, jsonKeys(f.Type)...)
		case name == "":
			keys = append(keys, f.Name)
		default:
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	return keys
}

func keysOf(v any) []string { return jsonKeys(reflect.TypeOf(v)) }

// TestWireKeysMatchClient: the public SDK declares the /v2 wire format on
// its own (client/types.go), the server derives it from the facade's
// option structs. Their JSON keys must agree, so an option added on one
// side only fails here by name.
func TestWireKeysMatchClient(t *testing.T) {
	var profileKeys []string
	profileKeys = append(profileKeys, "session", "top")
	profileKeys = append(profileKeys, keysOf(lowutil.ProfileOptions{})...)
	sort.Strings(profileKeys)
	syncKeys := map[string]bool{}
	for _, k := range keysOf(request{}) {
		syncKeys[k] = true
	}
	for _, k := range profileKeys {
		if !syncKeys[k] {
			t.Errorf("the synchronous request does not decode profile key %q", k)
		}
	}

	cases := []struct {
		name         string
		client, want []string
	}{
		{"Spec vs jobs.Spec", keysOf(client.Spec{}), keysOf(request{}.Spec)},
		{"Job vs jobSubmission", keysOf(client.Job{}), keysOf(jobSubmission{})},
		{"ProfileRequest vs profile endpoint", keysOf(client.ProfileRequest{}), profileKeys},
		{"CompileResult vs compileResponse", keysOf(client.CompileResult{}), keysOf(compileResponse{})},
		{"ProfileResult vs profileResponse", keysOf(client.ProfileResult{}), keysOf(profileResponse{})},
		{"ReportResult vs reportResponse", keysOf(client.ReportResult{}), keysOf(reportResponse{})},
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.client, c.want) {
			t.Errorf("%s: client keys %v, server keys %v", c.name, c.client, c.want)
		}
	}
}
