package jobs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestSpecHashCoversEveryField: Hash is the SHA-256 of the spec's JSON
// encoding, so setting any single wire-visible field — the spec's own or
// one promoted from the embedded facade option structs — must change the
// hash, and no two fields may collide. The process-side budgets tagged
// json:"-" stay out of the hash, which is sound only because no decoded
// body can set them: that is pinned too.
func TestSpecHashCoversEveryField(t *testing.T) {
	seen := map[string]string{Spec{}.Hash(): "zero spec"}
	var hidden []string
	var walk func(path []int, typ reflect.Type)
	walk = func(path []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			index := append(append([]int(nil), path...), i)
			if sf.Anonymous && sf.Type.Kind() == reflect.Struct {
				walk(index, sf.Type)
				continue
			}
			if sf.Tag.Get("json") == "-" {
				hidden = append(hidden, sf.Name)
				continue
			}
			var s Spec
			f := reflect.ValueOf(&s).Elem().FieldByIndex(index)
			switch f.Kind() {
			case reflect.String:
				f.SetString("x")
			case reflect.Int, reflect.Int64:
				f.SetInt(3)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("field %s has kind %s; extend this test", sf.Name, f.Kind())
			}
			h := s.Hash()
			if other, dup := seen[h]; dup {
				t.Errorf("setting %s hashes like %s", sf.Name, other)
			}
			seen[h] = sf.Name
		}
	}
	walk(nil, reflect.TypeOf(Spec{}))

	if len(hidden) == 0 {
		t.Fatal(`no json:"-" fields found; the embedded facade options should carry the process-side budgets`)
	}
	var keys []string
	for _, name := range hidden {
		keys = append(keys, fmt.Sprintf("%q: 3, %q: 3", name, strings.ToLower(name)))
	}
	var s Spec
	body := "{" + strings.Join(keys, ", ") + "}"
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatal(err)
	}
	for _, name := range hidden {
		if f := reflect.ValueOf(s).FieldByName(name); !f.IsZero() {
			t.Errorf("decoding %s set the process-side field %s = %v", body, name, f)
		}
	}
}
