package profiler_test

import (
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/mjc"
	"lowutil/internal/oracle"
	"lowutil/internal/oracle/oraclecheck"
	"lowutil/internal/profiler"
)

// freqParitySrc is a fuzzer-found reproducer (fuzzgen seed
// 7665958480717146759) for a lost-update bug in the dense fast path: the
// profiler caches the graph's dense frequency table, and AfterCall's
// call-assignment node could grow (reallocate) that table without the cache
// being re-fetched, so the next method body's fast-path increments landed in
// the orphaned array. The two .step calls below straddle exactly such a
// growth boundary: the second call's body counted for nothing, halving the
// callee's recorded frequencies.
const freqParitySrc = `
class Base {
  int fa;
  int fb;
  Base link;
  int step(int x) {
    this.fb = x;
    int v1 = ((this.fb & this.fb) ^ (x % 2));
    return v1;
  }
  int tag() {
    return 7;
  }
}
class SubA extends Base {
  int ga;
  int step(int x) {
    this.ga = 558;
    this.fb = 709;
    return x;
  }
  int tag() {
    return 17;
  }
}
class SubB extends Base {
  int gb;
  int step(int x) {
    this.fa = hash(hash(266));
    return (this.fa + this.fb);
  }
  int tag() {
    return 24;
  }
}
class Scratch {
  int sa;
  int sb;
  int sc;
}
class W1 {
  int acc1;
  int m0(int d, int a) {
    if (d <= 0) {
      return (a % 97);
    }
    print(this.acc1);
    if ((hash(d) < (-20 & this.acc1))) {
      a = ((this.acc1 + this.acc1) / 6);
    }
    if (0 < 1) {
      int w3 = 5;
      while (w3 > 0) {
        w3 = w3 - 1;
        int v4 = (this.acc1 & d);
        Base r5 = new Base();
      }
    }
    Base r6 = new SubA();
    r6.link = r6;
    return (r6.fb + this.m0((d - 1), d));
  }
}
class Main {
  static void main() {
    int total = 0;
    Base[] pool11 = new Base[4];
    for (int i12 = 0; i12 < pool11.length; i12 = i12 + 1) {
      if ((i12 % 2) == 0) {
        pool11[i12] = new SubA();
      } else {
        pool11[i12] = new SubA();
      }
    }
    Scratch s13 = new Scratch();
    s13.sa = 692;
    s13.sb = pool11[1].step(pool11[3].step(total));
    W1 r14 = new W1();
    total = (total + r14.m0(2, (total & r14.acc1)));
    print(total);
  }
}
`

// TestDenseFreqMatchesLegacyGraph pins node-frequency parity between the
// profiler's inlined fast path and the oracle, which counts every event with
// a plain map increment and therefore cannot lose increments to a stale
// table view. (The name predates the oracle, which replaced a map-backed
// graph representation as the reference.)
func TestDenseFreqMatchesLegacyGraph(t *testing.T) {
	prog, err := mjc.Compile(freqParitySrc)
	if err != nil {
		t.Fatal(err)
	}
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := oracle.Run(prog, 16, 0)
	if want.Err != "" {
		t.Fatal(want.Err)
	}
	if err := oraclecheck.Graph(want.G, p.G); err != nil {
		t.Fatal(err)
	}
}
