package jobs

import (
	"reflect"
	"testing"
)

// TestSpecHashCoversEveryField: Hash is a hand-kept format string over the
// Spec fields, so pin that setting any single field changes the hash, and
// that no two fields collide with each other.
func TestSpecHashCoversEveryField(t *testing.T) {
	seen := map[string]string{Spec{}.Hash(): "zero spec"}
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		var s Spec
		f := reflect.ValueOf(&s).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int:
			f.SetInt(3)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("field %s has kind %s; extend this test and Spec.Hash", typ.Field(i).Name, f.Kind())
		}
		h := s.Hash()
		if other, dup := seen[h]; dup {
			t.Errorf("setting %s hashes like %s", typ.Field(i).Name, other)
		}
		seen[h] = typ.Field(i).Name
	}
}
