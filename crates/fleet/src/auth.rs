//! Shared-token connection authentication for the fleet control plane.
//!
//! The coordinator no longer trusts its network: every mutating
//! connection must prove knowledge of the fleet token before it can
//! lease, report, or heartbeat. The proof is a challenge/response —
//! the coordinator sends a fresh nonce, the client answers with
//! [`mac64`]`(token, nonce)` — so a captured handshake cannot be
//! replayed against a new connection (a new connection gets a new
//! nonce).
//!
//! The MAC is the workspace's [`mix64`] mixer chained over the token
//! bytes and the nonce, std-only like everything else in the fleet.
//! It is an integrity/authorization gate against misconfigured or
//! version-skewed clients and casual port-scanners, **not** a
//! cryptographic MAC: anyone who can read the token (it is shared
//! among the fleet's machines) or the process memory is inside the
//! trust boundary already. The design constraint is "a client that
//! does not know the token, or speaks a different protocol, must get a
//! typed refusal instead of corrupting the sweep".

use std::sync::atomic::{AtomicU64, Ordering};

use dsp_types::hash::{mix64, FX_MIX};

/// Domain separator so a `mac64` output can never collide with a bare
/// `mix64` of the same nonce.
const MAC_DOMAIN: u64 = 0x6d61_6336_3464_7370; // "mac64dsp"

/// Keyed hash of `nonce` under `token`: the challenge response a
/// client sends in `Auth`, and the value the coordinator verifies.
///
/// Deterministic, order-sensitive, and sensitive to the token length
/// (so `"ab" + "c"` and `"a" + "bc"` diverge). An empty token is a
/// valid (open-fleet) key: the handshake shape stays identical, only
/// the secret is trivial.
pub fn mac64(token: &str, nonce: u64) -> u64 {
    let mut h = mix64(nonce ^ MAC_DOMAIN);
    for chunk in token.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_le_bytes(word) ^ FX_MIX);
    }
    mix64(h ^ (token.len() as u64) ^ nonce.rotate_left(32))
}

/// Process-wide nonce source: a counter mixed through [`mix64`], so
/// nonces are unique per connection and do not reveal the accept
/// order. Uniqueness is what the challenge needs; unpredictability is
/// explicitly not a goal (see the module docs).
pub fn fresh_nonce() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    // Never hand out 0: a zeroed struct must not verify by accident.
    mix64(n ^ MAC_DOMAIN) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_is_deterministic_and_keyed() {
        assert_eq!(mac64("secret", 42), mac64("secret", 42));
        assert_ne!(mac64("secret", 42), mac64("secret", 43), "nonce-bound");
        assert_ne!(mac64("secret", 42), mac64("Secret", 42), "token-bound");
        assert_ne!(mac64("", 42), mac64("x", 42), "empty key is distinct");
    }

    #[test]
    fn mac_is_length_sensitive() {
        // Same bytes, different chunk split must not collide: the
        // length fold breaks simple extension shuffles.
        assert_ne!(mac64("abcdefgh", 7), mac64("abcdefg", 7));
        assert_ne!(mac64("a", 7), mac64("a\0", 7));
    }

    #[test]
    fn nonces_are_unique_and_nonzero() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
    }
}
