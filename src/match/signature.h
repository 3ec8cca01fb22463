// Compact per-schema signatures for phase-2 screening (DESIGN.md §16).
//
// Every schema gets a 256-bit SimHash over its element-name n-grams plus a
// 16-slot MinHash sketch over its context-term set, both computed at index
// time and stored in the CorpusSnapshot next to the inverted index. At
// query time one XOR+popcount per candidate estimates how similar the
// matcher ensemble would find the pair — before any similarity matrix is
// built. Only approximate mode (SearchEngineOptions::prefilter) reads the
// estimate: it drops candidates below a threshold and is opt-in per
// request, with its recall floor measured by E20. Exact search computes no
// signature at all.
//
// Signatures are advisory: no matcher score is ever derived from them, so
// hash collisions can cost a little recall in approximate mode but can
// never corrupt a score. The CRC seals a signature against storage bit
// rot — a flipped byte is detected and the signature rebuilt from the
// schema, never silently trusted.

#ifndef SCHEMR_MATCH_SIGNATURE_H_
#define SCHEMR_MATCH_SIGNATURE_H_

#include <cstddef>
#include <cstdint>

namespace schemr {

struct SchemaSignature {
  static constexpr size_t kSimHashBits = 256;
  static constexpr size_t kSimHashWords = kSimHashBits / 64;
  static constexpr size_t kMinHashSlots = 16;
  /// Slot value of an empty MinHash (no terms hashed in).
  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  uint64_t simhash[kSimHashWords] = {0, 0, 0, 0};
  uint32_t minhash[kMinHashSlots] = {
      kEmptySlot, kEmptySlot, kEmptySlot, kEmptySlot, kEmptySlot, kEmptySlot,
      kEmptySlot, kEmptySlot, kEmptySlot, kEmptySlot, kEmptySlot, kEmptySlot,
      kEmptySlot, kEmptySlot, kEmptySlot, kEmptySlot};
  /// CRC-32 over simhash+minhash, written by SealSignature.
  uint32_t crc = 0;

  bool operator==(const SchemaSignature& other) const;
};

/// Deterministic 64-bit mix (splitmix64 finalizer); the one hash every
/// signature bit derives from, so signatures are stable across runs,
/// machines and compilers.
uint64_t MixHash64(uint64_t x);

/// FNV-1a over a byte string, the seed for MixHash64 on textual grams.
uint64_t HashBytes(const void* data, size_t size);

/// Hamming distance between the two SimHashes (XOR+popcount, 4 words).
size_t SimHashDistance(const SchemaSignature& a, const SchemaSignature& b);

/// SimHash agreement mapped onto [0, 1]: 1 for identical bit vectors, ~0
/// for unrelated ones (whose expected distance is kSimHashBits/2).
double SimHashSimilarity(const SchemaSignature& a, const SchemaSignature& b);

/// Fraction of agreeing MinHash slots — an unbiased estimate of the
/// Jaccard similarity of the two context-term sets.
double MinHashSimilarity(const SchemaSignature& a, const SchemaSignature& b);

/// The screening estimate: a fixed blend of SimHash (name material) and
/// MinHash (context material) agreement, in [0, 1].
double EstimatedSimilarity(const SchemaSignature& a, const SchemaSignature& b);

/// CRC-32 (IEEE, reflected) over the signature payload (simhash+minhash).
uint32_t SignatureCrc(const SchemaSignature& signature);

/// Stamps signature.crc so VerifySignature can authenticate it later.
void SealSignature(SchemaSignature* signature);

/// True iff the stored crc matches the payload (a byte-flipped signature
/// fails this and must be rebuilt from the schema).
bool VerifySignature(const SchemaSignature& signature);

/// Incremental SimHash accumulator: feed weighted grams, then Finish()
/// collapses the 256 weight sums into sign bits.
class SimHashAccumulator {
 public:
  SimHashAccumulator();

  /// Adds one gram with the given weight: each of the 256 positions moves
  /// by ±weight according to the gram's expanded hash stream.
  void Add(uint64_t gram_hash, double weight);

  /// Writes the sign bits into signature->simhash (weight sum > 0 → 1).
  void Finish(SchemaSignature* signature) const;

 private:
  double weights_[SchemaSignature::kSimHashBits];
};

/// Incremental MinHash accumulator over a term set.
class MinHashAccumulator {
 public:
  /// Folds one distinct term (by its 64-bit hash) into all slots.
  void Add(uint64_t term_hash);

  /// Writes the per-slot minima into signature->minhash.
  void Finish(SchemaSignature* signature) const;

 private:
  uint32_t slots_[SchemaSignature::kMinHashSlots] = {
      SchemaSignature::kEmptySlot, SchemaSignature::kEmptySlot,
      SchemaSignature::kEmptySlot, SchemaSignature::kEmptySlot,
      SchemaSignature::kEmptySlot, SchemaSignature::kEmptySlot,
      SchemaSignature::kEmptySlot, SchemaSignature::kEmptySlot,
      SchemaSignature::kEmptySlot, SchemaSignature::kEmptySlot,
      SchemaSignature::kEmptySlot, SchemaSignature::kEmptySlot,
      SchemaSignature::kEmptySlot, SchemaSignature::kEmptySlot,
      SchemaSignature::kEmptySlot, SchemaSignature::kEmptySlot};
};

}  // namespace schemr

#endif  // SCHEMR_MATCH_SIGNATURE_H_
