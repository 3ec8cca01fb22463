#include "match/signature.h"

#include <cstring>

namespace schemr {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Per-slot MinHash seeds: MixHash64 of the slot index, precomputed so
/// Add() stays a multiply-xor chain.
struct MinHashSeeds {
  uint64_t seed[SchemaSignature::kMinHashSlots];
  MinHashSeeds() {
    for (size_t s = 0; s < SchemaSignature::kMinHashSlots; ++s) {
      seed[s] = MixHash64(0x9e3779b97f4a7c15ull + s);
    }
  }
};

const MinHashSeeds& Seeds() {
  static const MinHashSeeds seeds;
  return seeds;
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
struct Crc32Table {
  uint32_t table[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const Crc32Table crc_table;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = crc_table.table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint64_t MixHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashBytes(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = kFnvOffset;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

bool SchemaSignature::operator==(const SchemaSignature& other) const {
  return std::memcmp(simhash, other.simhash, sizeof(simhash)) == 0 &&
         std::memcmp(minhash, other.minhash, sizeof(minhash)) == 0 &&
         crc == other.crc;
}

size_t SimHashDistance(const SchemaSignature& a, const SchemaSignature& b) {
  size_t distance = 0;
  for (size_t w = 0; w < SchemaSignature::kSimHashWords; ++w) {
    distance += static_cast<size_t>(
        __builtin_popcountll(a.simhash[w] ^ b.simhash[w]));
  }
  return distance;
}

double SimHashSimilarity(const SchemaSignature& a, const SchemaSignature& b) {
  // Unrelated gram sets land near distance = bits/2; map that to ~0 so the
  // estimate spreads over [0, 1] instead of clustering around 0.5.
  const double agreement =
      1.0 - 2.0 * static_cast<double>(SimHashDistance(a, b)) /
                static_cast<double>(SchemaSignature::kSimHashBits);
  return agreement < 0.0 ? 0.0 : agreement;
}

double MinHashSimilarity(const SchemaSignature& a, const SchemaSignature& b) {
  size_t agree = 0;
  for (size_t s = 0; s < SchemaSignature::kMinHashSlots; ++s) {
    if (a.minhash[s] == b.minhash[s]) ++agree;
  }
  return static_cast<double>(agree) /
         static_cast<double>(SchemaSignature::kMinHashSlots);
}

double EstimatedSimilarity(const SchemaSignature& a,
                           const SchemaSignature& b) {
  // Name material dominates the matcher ensemble (name matcher weight 1.0,
  // and context neighborhoods are themselves built from names), so the
  // SimHash carries more of the estimate than the term-set sketch.
  return 0.6 * SimHashSimilarity(a, b) + 0.4 * MinHashSimilarity(a, b);
}

uint32_t SignatureCrc(const SchemaSignature& signature) {
  unsigned char payload[sizeof(signature.simhash) + sizeof(signature.minhash)];
  std::memcpy(payload, signature.simhash, sizeof(signature.simhash));
  std::memcpy(payload + sizeof(signature.simhash), signature.minhash,
              sizeof(signature.minhash));
  return Crc32(payload, sizeof(payload));
}

void SealSignature(SchemaSignature* signature) {
  signature->crc = SignatureCrc(*signature);
}

bool VerifySignature(const SchemaSignature& signature) {
  return signature.crc == SignatureCrc(signature);
}

SimHashAccumulator::SimHashAccumulator() {
  for (double& w : weights_) w = 0.0;
}

void SimHashAccumulator::Add(uint64_t gram_hash, double weight) {
  // Expand the gram hash into a 256-bit decision stream: four dependent
  // splitmix steps, one per 64-bit word.
  // The bits are random, so a branch on each one mispredicts half the
  // time; the vote is selected by index instead. Each position still
  // adds exactly +weight or -weight, in the same order, so the sums (and
  // the signature bits) are unchanged.
  const double vote[2] = {-weight, weight};
  uint64_t h = gram_hash;
  for (size_t w = 0; w < SchemaSignature::kSimHashWords; ++w) {
    h = MixHash64(h);
    uint64_t bits = h;
    for (size_t b = 0; b < 64; ++b) {
      weights_[w * 64 + b] += vote[bits & 1u];
      bits >>= 1;
    }
  }
}

void SimHashAccumulator::Finish(SchemaSignature* signature) const {
  for (size_t w = 0; w < SchemaSignature::kSimHashWords; ++w) {
    uint64_t word = 0;
    for (size_t b = 0; b < 64; ++b) {
      if (weights_[w * 64 + b] > 0.0) word |= uint64_t{1} << b;
    }
    signature->simhash[w] = word;
  }
}

void MinHashAccumulator::Add(uint64_t term_hash) {
  const MinHashSeeds& seeds = Seeds();
  for (size_t s = 0; s < SchemaSignature::kMinHashSlots; ++s) {
    const uint32_t value =
        static_cast<uint32_t>(MixHash64(term_hash ^ seeds.seed[s]));
    if (value < slots_[s]) slots_[s] = value;
  }
}

void MinHashAccumulator::Finish(SchemaSignature* signature) const {
  for (size_t s = 0; s < SchemaSignature::kMinHashSlots; ++s) {
    signature->minhash[s] = slots_[s];
  }
}

}  // namespace schemr
