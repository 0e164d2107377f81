package ktree

import "testing"

func TestPermCount(t *testing.T) {
	want := []int{1, 1, 2, 6, 24, 120, 720, 5040, 40320}
	for k, w := range want {
		if got := permCount(k); got != w {
			t.Errorf("permCount(%d) = %d, want %d", k, got, w)
		}
	}
}

func TestPermTableComplete(t *testing.T) {
	for k := 1; k <= 5; k++ {
		rows := permTable(k)
		if len(rows) != permCount(k) {
			t.Fatalf("k=%d: %d rows, want %d", k, len(rows), permCount(k))
		}
		seen := map[string]bool{}
		for _, r := range rows {
			if len(r) != k {
				t.Fatalf("k=%d: row length %d", k, len(r))
			}
			var used [MaxK]bool
			for _, x := range r {
				if int(x) >= k || used[x] {
					t.Fatalf("k=%d: invalid row %v", k, r)
				}
				used[x] = true
			}
			seen[string(r)] = true
		}
		if len(seen) != permCount(k) {
			t.Fatalf("k=%d: %d distinct rows, want %d", k, len(seen), permCount(k))
		}
	}
}

func TestPermIdentityFirst(t *testing.T) {
	for k := 1; k <= 6; k++ {
		r := permTable(k)[0]
		for i, x := range r {
			if int(x) != i {
				t.Fatalf("k=%d: row 0 = %v, want identity", k, r)
			}
		}
	}
}

func TestPermTableStable(t *testing.T) {
	a, b := permTable(4), permTable(4)
	for i := range a {
		if &a[i][0] != &b[i][0] {
			t.Fatal("permTable should return the cached instance")
		}
	}
}

func TestPermOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("permTable(MaxK+1) should panic")
		}
	}()
	permTable(MaxK + 1)
}
