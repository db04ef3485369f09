package multicast

import (
	"reflect"
	"testing"
)

// TestTreeFootprintPerSlot pins the storage layout: a dense slot costs 24
// bytes, a sparse one 32 plus its share of the index, and MemoryFootprint is
// what the tree's slices hold. The slices are found by reflection, so a
// column added to Tree fails here until MemoryFootprint counts it and this
// pin is restated.
func TestTreeFootprintPerSlot(t *testing.T) {
	for _, mode := range []struct {
		name    string
		sparse  bool
		perSlot int64
	}{{"dense", false, 24}, {"sparse", true, 32}} {
		t.Run(mode.name, func(t *testing.T) {
			tr, leaf, _ := benchChurnFixture(t, 200, 200, 40, mode.sparse)
			if err := tr.Leave(leaf); err != nil { // a tombstone keeps its slot
				t.Fatal(err)
			}
			lenBytes, capBytes := sliceBytes(reflect.ValueOf(tr).Elem())
			fp := tr.MemoryFootprint()
			if lenBytes != fp {
				t.Fatalf("MemoryFootprint %d B, the tree's slices hold %d B", fp, lenBytes)
			}
			// Dense columns are sized once; sparse ones grow by appending, and
			// what they hold beyond their length is not standing state.
			if !mode.sparse && capBytes != fp {
				t.Fatalf("MemoryFootprint %d B, the dense tree allocated %d B", fp, capBytes)
			}
			slots := int64(len(tr.parent))
			if !mode.sparse && slots != int64(tr.Graph().NumNodes()) {
				t.Fatalf("dense tree has %d slots on a graph of %d nodes", slots, tr.Graph().NumNodes())
			}
			rest := fp - int64(len(tr.onTree)+len(tr.members))*bytesPerWord - int64(len(tr.slots.tab))*bytesPerIndexEntry
			if rest != mode.perSlot*slots {
				t.Fatalf("%d slots cost %d B besides the bitsets and the index, want %d B each", slots, rest, mode.perSlot)
			}
		})
	}
}

// sliceBytes sums length and capacity times element size over the slices in
// v, walking into structs and skipping the tree's two work buffers, which
// MemoryFootprint leaves out.
func sliceBytes(v reflect.Value) (lenBytes, capBytes int64) {
	switch v.Kind() {
	case reflect.Slice:
		size := int64(v.Type().Elem().Size())
		return int64(v.Len()) * size, int64(v.Cap()) * size
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; name == "scratch" || name == "dirty" {
				continue
			}
			l, c := sliceBytes(v.Field(i))
			lenBytes, capBytes = lenBytes+l, capBytes+c
		}
	}
	return lenBytes, capBytes
}
