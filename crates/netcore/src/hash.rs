//! The workspace's one deterministic hasher.
//!
//! `std`'s default `RandomState` keys SipHash per process: safe against
//! crafted keys, but a 20-byte key costs tens of nanoseconds and a map's
//! iteration order changes from run to run. Every key hashed in this
//! workspace is one the simulation itself constructs (packed mapping
//! keys, simulated addresses, endpoints and node ids drawn from a seeded
//! RNG), so the NAT engine's tables, `simnet`'s realm address maps and
//! the DHT's peer and crawl sets all use [`MixMap`] / [`MixSet`]: a fold
//! per word, one [`mix64`] avalanche, and an iteration order that is a
//! function of the seed alone. This module is the single definition;
//! `nat_engine::store` re-exports it under its historical path.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer — stable across runs and platforms, unlike
/// `std::hash`'s SipHash keys. Doubles as the NAT engine's shard hash
/// (`nat_engine::sharded::mix64`) and the avalanche step of
/// [`Mix64Hasher`].
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fast, deterministic hasher for keys the program itself constructs:
/// an FxHash-style fold per write, finished with a [`mix64`]
/// avalanche. Not DoS-resistant — never use it for keys that arrive
/// from outside the process.
#[derive(Debug, Default, Clone)]
pub struct Mix64Hasher(u64);

const FOLD: u64 = 0x51_7C_C1_B7_27_22_0A_95;

impl Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(FOLD);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FOLD);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` with the deterministic [`Mix64Hasher`].
pub type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<Mix64Hasher>>;

/// `HashSet` with the deterministic [`Mix64Hasher`].
pub type MixSet<T> = HashSet<T, BuildHasherDefault<Mix64Hasher>>;
