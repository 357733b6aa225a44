// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for on-disk framing.
//
// The write-ahead journal frames its on-disk records (and the socket
// runtime its wire frames) with a CRC so that torn writes and bit rot are
// detected deterministically instead of surfacing as undefined
// decoding behaviour. This is an integrity check against accidental
// corruption only — tampering detection is the evidence log's hash
// chain, not the CRC.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace b2b::store {

std::uint32_t crc32(BytesView data);

}  // namespace b2b::store
