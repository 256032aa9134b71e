// Frozen CSR: a flat, offset-based, single-allocation immutable image of a
// Graph, designed to be written to and mapped back from a file.
//
// The serving stack restarts far more often than its graphs change: a
// million-node road graph is parsed once (graph/io.h) and then re-loaded on
// every deploy. The frozen form makes the re-load O(file) with zero parse
// cost -- the on-disk bytes ARE the in-memory layout (fixed-width
// little-endian sections, no varints, no pointers), so load() is a single
// mmap (POSIX; plain read fallback elsewhere) plus a checksum walk, and
// queries run straight off the mapped image. thaw() rehydrates a full
// Graph -- the handle GenerationManager serves from -- by memcpy-ing
// sections into the Graph's own vectors: no edge re-validation and no CSR
// counting sort, which is where a cold parse spends its time.
//
// File layout (version 1), 8-byte aligned sections in this order:
//   header   { magic "RSPTCSR1", version, flags, n, m, present, epoch,
//              payload checksum (FNV-1a), payload bytes }
//   offsets  (n+1) x u32            -- CSR row starts into `arcs`
//   arcs     2*present x {u32 to, u32 edge<<1|forward}
//   edges    m x {u32 u, u32 v}     -- every slot, tombstones included
//   labels   m x u32
//   present  m x u8                 -- only when flags bit 0 is set
// Edge slots and labels survive freezing verbatim (tombstones included), so
// edge ids, FaultSets, and per-label tiebreak weights built against the
// original graph stay valid against the one thaw() returns, and epoch()
// carries over.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace restorable {

class FrozenCsr {
 public:
  // An arc as stored in the image (8 bytes; Graph::Arc is 12 with padding).
  struct PackedArc {
    uint32_t to;
    uint32_t edge_and_dir;  // edge << 1 | forward

    EdgeId edge() const { return edge_and_dir >> 1; }
    bool forward() const { return edge_and_dir & 1; }
  };

  FrozenCsr() = default;
  FrozenCsr(FrozenCsr&&) noexcept = default;
  FrozenCsr& operator=(FrozenCsr&&) noexcept = default;

  // Flattens `g` (at its current epoch) into a frozen image held in memory.
  static FrozenCsr freeze(const Graph& g);

  // Writes the image to `path` (atomic via rename from a sibling temp file).
  // Returns false (and leaves no file behind) on any I/O failure.
  bool write(const std::string& path) const;

  // Maps (or, when mmap is unavailable or `prefer_mmap` is false, reads)
  // the image at `path`. Returns nullopt on I/O failure, bad magic /
  // version, a truncated file, or a checksum mismatch -- a frozen graph is
  // either loaded exactly or not at all.
  static std::optional<FrozenCsr> load(const std::string& path,
                                       bool prefer_mmap = true);

  bool valid() const { return data_ != nullptr; }
  // Whether the backing bytes are a file mapping (false: owned heap copy).
  bool mapped() const { return mapping_ != nullptr; }
  size_t file_bytes() const { return size_; }

  Vertex num_vertices() const { return static_cast<Vertex>(n_); }
  EdgeId num_edges() const { return static_cast<EdgeId>(m_); }
  EdgeId num_present_edges() const { return static_cast<EdgeId>(present_); }
  uint64_t epoch() const { return epoch_; }

  // Zero-copy queries straight off the image.
  std::span<const PackedArc> arcs(Vertex v) const {
    return {arcs_ + offsets_[v], arcs_ + offsets_[v + 1]};
  }
  size_t degree(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }
  Edge endpoints(EdgeId e) const { return {edges_[2 * e], edges_[2 * e + 1]}; }
  EdgeId label(EdgeId e) const { return labels_[e]; }
  bool edge_present(EdgeId e) const { return !present_map_ || present_map_[e]; }

  // Rehydrates a mutable Graph (member-fill; no validation, no counting
  // sort). The result is bit-identical to the graph freeze() was given:
  // same edge slots, labels, tombstones, arc order, and epoch.
  Graph thaw() const;
  // The graph thaw() returns, as the shared snapshot handle the serving layer
  // (GenerationManager) consumes.
  GraphSnapshot thaw_snapshot() const {
    return std::make_shared<const Graph>(thaw());
  }

 private:
  struct Mapping;  // RAII mmap region (POSIX only)

  // Points the section pointers into data_ and validates the header.
  // Returns false on a malformed or truncated image.
  bool attach(bool verify_checksum);

  const uint8_t* data_ = nullptr;  // either owned_.data() or mapping_ bytes
  size_t size_ = 0;
  std::vector<uint8_t> owned_;
  std::shared_ptr<Mapping> mapping_;

  uint64_t n_ = 0;
  uint64_t m_ = 0;
  uint64_t present_ = 0;
  uint64_t epoch_ = 0;
  const uint32_t* offsets_ = nullptr;
  const PackedArc* arcs_ = nullptr;
  const uint32_t* edges_ = nullptr;
  const uint32_t* labels_ = nullptr;
  const uint8_t* present_map_ = nullptr;  // null when every slot is present
};

}  // namespace restorable
