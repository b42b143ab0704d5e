package kernelir

import (
	"strconv"
	"testing"
)

// TestFingerprintMemoEvictsPastCap: once the memo has seen more than
// fpMemoCap kernels, a new kernel is still memoized — its second
// Fingerprint call does not rehash — and the memo stays within its cap.
// Regression: the memo once stopped inserting at the cap without
// evicting, so every later kernel paid a full disassembly and SHA-256 on
// every call.
func TestFingerprintMemoEvictsPastCap(t *testing.T) {
	for i := 0; i <= fpMemoCap; i++ {
		Fingerprint(&Kernel{Name: "filler" + strconv.Itoa(i)})
	}
	k := &Kernel{Name: "fresh"}
	first := Fingerprint(k)
	// Kernels are immutable by contract. Breaking that here turns a
	// rehash into a visibly different fingerprint.
	k.Name = "fresh-renamed"
	if got := Fingerprint(k); got != first {
		t.Fatalf("second Fingerprint of a kernel past the cap rehashed: %s, then %s", first, got)
	}
	if n := fpMemo.Len(); n > fpMemoCap {
		t.Fatalf("fingerprint memo holds %d kernels, cap is %d", n, fpMemoCap)
	}
}
