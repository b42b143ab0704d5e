package kernelir

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"synergy/internal/memo"
)

// fpMemoCap bounds the fingerprint memo. Long-lived callers (the sweep
// engine, the compiled-program cache) fingerprint a stable population of
// kernels and keep hitting the memo; transient kernels — e.g. the fresh
// instrumented clones ExecuteChecked builds per call, a freshly
// assembled kernel per served request, or fuzzer-generated bodies —
// push the least recently used kernels out past the cap. Each entry
// pins its kernel (several KB for a suite kernel) while a transient
// kernel needs the memo only for the calls of its own request, so the
// cap is sized to the kernels in active use, below the 4096 of the
// content-keyed memos.
const fpMemoCap = 1024

var fpMemo = memo.New[*Kernel, string](fpMemoCap)

// Fingerprint returns a stable identity for the kernel: the hex form of
// the first 16 bytes of the SHA-256 of its disassembly. Textual identity
// is exactly what both the sweep engine's memo and the compiled-program
// cache want — two kernels that disassemble identically have identical
// features, identical ground truth and identical compiled code.
//
// Results are memoized by pointer (kernels are immutable once built) in
// an LRU bounded by fpMemoCap.
func Fingerprint(k *Kernel) string {
	fp, _ := fpMemo.Do(context.Background(), k, func() (string, error) {
		sum := sha256.Sum256([]byte(k.Disassemble()))
		return hex.EncodeToString(sum[:16]), nil
	})
	return fp
}
