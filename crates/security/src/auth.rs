//! Authentication and policy (§5): principals, session tokens, and the
//! role checks that gate data and control paths.

use crate::cipher::Key;
use crate::hash::{digest_eq, keyed_hash};
use std::collections::BTreeMap;
use ys_simcore::time::SimTime;

/// Who is asking.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PrincipalId(pub u32);

/// Coarse roles: the management plane is fortified separately from the data
/// plane (§5.2's "fortified architectural ring").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// May issue control-plane commands (volume create, policy, rebuild).
    Admin,
    /// May only issue data-path I/O against volumes its tenant owns.
    User,
}

#[derive(Clone, Debug)]
pub struct Principal {
    pub id: PrincipalId,
    pub name: String,
    pub tenant: u32,
    pub role: Role,
    secret: Key,
}

/// A bearer token: principal + expiry + MAC over both.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SessionToken {
    pub principal: PrincipalId,
    pub expires: SimTime,
    mac: u64,
}

/// Authentication failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthError {
    UnknownPrincipal,
    BadCredential,
    TokenExpired,
    TokenForged,
    Forbidden,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AuthError::UnknownPrincipal => "unknown principal",
            AuthError::BadCredential => "bad credential",
            AuthError::TokenExpired => "token expired",
            AuthError::TokenForged => "token failed verification",
            AuthError::Forbidden => "operation forbidden for role",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for AuthError {}

/// The authentication service. Lives inside the fortified ring; the blades
/// never run user code (§5.2), they only verify tokens minted here.
#[derive(Clone, Debug)]
pub struct AuthService {
    principals: BTreeMap<PrincipalId, Principal>,
    /// Service master key used to MAC tokens.
    master: Key,
    next_id: u32,
}

impl AuthService {
    pub fn new(master_seed: u64) -> AuthService {
        AuthService { principals: BTreeMap::new(), master: Key::from_seed(master_seed), next_id: 0 }
    }

    pub fn register(&mut self, name: impl Into<String>, tenant: u32, role: Role, secret_seed: u64) -> PrincipalId {
        let id = PrincipalId(self.next_id);
        self.next_id += 1;
        self.principals.insert(
            id,
            Principal { id, name: name.into(), tenant, role, secret: Key::from_seed(secret_seed) },
        );
        id
    }

    fn token_mac(&self, principal: PrincipalId, expires: SimTime) -> u64 {
        let mut buf = [0u8; 12];
        buf[..4].copy_from_slice(&principal.0.to_be_bytes());
        buf[4..].copy_from_slice(&expires.nanos().to_be_bytes());
        keyed_hash(&self.master, &buf)
    }

    /// Log in: prove knowledge of the principal's secret (the credential is
    /// a MAC of a challenge under the principal's key).
    pub fn login(
        &self,
        id: PrincipalId,
        challenge: u64,
        response: u64,
        now: SimTime,
        ttl_ns: u64,
    ) -> Result<SessionToken, AuthError> {
        let p = self.principals.get(&id).ok_or(AuthError::UnknownPrincipal)?;
        let expected = keyed_hash(&p.secret, &challenge.to_be_bytes());
        if !digest_eq(expected, response) {
            return Err(AuthError::BadCredential);
        }
        let expires = SimTime(now.nanos() + ttl_ns);
        Ok(SessionToken { principal: id, expires, mac: self.token_mac(id, expires) })
    }

    /// Compute the correct login response for a principal (what a real
    /// client library would do with its locally-held secret).
    pub fn client_response(&self, id: PrincipalId, challenge: u64) -> Option<u64> {
        self.principals.get(&id).map(|p| keyed_hash(&p.secret, &challenge.to_be_bytes()))
    }

    /// Verify a token and return the principal.
    fn verify(&self, token: &SessionToken, now: SimTime) -> Result<&Principal, AuthError> {
        let p = self.principals.get(&token.principal).ok_or(AuthError::UnknownPrincipal)?;
        if !digest_eq(self.token_mac(token.principal, token.expires), token.mac) {
            return Err(AuthError::TokenForged);
        }
        if now > token.expires {
            return Err(AuthError::TokenExpired);
        }
        Ok(p)
    }

    /// Verify a token *and* require a role.
    pub fn authorize(&self, token: &SessionToken, need: Role, now: SimTime) -> Result<&Principal, AuthError> {
        let p = self.verify(token, now)?;
        match (need, p.role) {
            (Role::Admin, Role::Admin) | (Role::User, _) => Ok(p),
            (Role::Admin, Role::User) => Err(AuthError::Forbidden),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AuthService, PrincipalId, PrincipalId) {
        let mut a = AuthService::new(99);
        let admin = a.register("ops", 0, Role::Admin, 1);
        let user = a.register("alice", 7, Role::User, 2);
        (a, admin, user)
    }

    #[test]
    fn login_and_verify_round_trip() {
        let (a, _, user) = setup();
        let challenge = 0x1234;
        let resp = a.client_response(user, challenge).unwrap();
        let tok = a.login(user, challenge, resp, SimTime::ZERO, 1_000_000).unwrap();
        let p = a.verify(&tok, SimTime(500_000)).unwrap();
        assert_eq!(p.name, "alice");
        assert_eq!(p.tenant, 7);
    }

    #[test]
    fn wrong_credential_rejected() {
        let (a, _, user) = setup();
        assert_eq!(a.login(user, 1, 0xBAD, SimTime::ZERO, 1000), Err(AuthError::BadCredential));
    }

    #[test]
    fn expired_token_rejected() {
        let (a, _, user) = setup();
        let resp = a.client_response(user, 5).unwrap();
        let tok = a.login(user, 5, resp, SimTime::ZERO, 1000).unwrap();
        assert!(a.verify(&tok, SimTime(999)).is_ok());
        assert_eq!(a.verify(&tok, SimTime(1001)).unwrap_err(), AuthError::TokenExpired);
    }

    #[test]
    fn forged_token_rejected() {
        let (a, _, user) = setup();
        let resp = a.client_response(user, 5).unwrap();
        let mut tok = a.login(user, 5, resp, SimTime::ZERO, 1000).unwrap();
        // Tamper with the expiry to extend the session.
        tok.expires = SimTime(u64::MAX / 2);
        assert_eq!(a.verify(&tok, SimTime(500)).unwrap_err(), AuthError::TokenForged);
    }

    #[test]
    fn role_enforcement() {
        let (a, admin, user) = setup();
        let at = {
            let r = a.client_response(admin, 1).unwrap();
            a.login(admin, 1, r, SimTime::ZERO, 1000).unwrap()
        };
        let ut = {
            let r = a.client_response(user, 1).unwrap();
            a.login(user, 1, r, SimTime::ZERO, 1000).unwrap()
        };
        assert!(a.authorize(&at, Role::Admin, SimTime::ZERO).is_ok());
        assert_eq!(a.authorize(&ut, Role::Admin, SimTime::ZERO).unwrap_err(), AuthError::Forbidden);
        assert!(a.authorize(&ut, Role::User, SimTime::ZERO).is_ok());
        assert!(a.authorize(&at, Role::User, SimTime::ZERO).is_ok(), "admin may use data path");
    }
}
