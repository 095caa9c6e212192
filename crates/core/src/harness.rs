//! `Opened`, kept for its only caller, `benchmark/src/sut.rs`: the
//! system takes [`Store`] (CI fails if its code names `Opened`). ROADMAP
//! item 1b deletes this module when it rebinds `sut.rs`.

use std::{borrow::Borrow, path::Path};

use crate::{error::Error, query::QueryTarget, store::Store, wal::WalConfig};

/// A [`Store`] tagged by whether it has a routing policy.
#[derive(Debug)]
pub enum Opened {
    /// A store without a routing policy (routing kind `single`).
    Single(Box<Store>),
    /// A store with a routing policy.
    Sharded(Box<Store>),
}

impl Opened {
    fn tag(store: Store) -> Self {
        let store = Box::new(store);
        if store.has_policy() {
            Opened::Sharded(store)
        } else {
            Opened::Single(store)
        }
    }

    /// [`Store::open`], tagged.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        Store::open(path).map(Self::tag)
    }

    /// [`Store::open_durable`], tagged.
    pub fn open_durable(path: impl AsRef<Path>, cfg: WalConfig) -> Result<Self, Error> {
        Store::open_durable(path, cfg).map(Self::tag)
    }

    /// The store's read surface.
    pub fn target(&self) -> &(dyn QueryTarget + 'static) {
        &**self
    }
}

impl std::ops::Deref for Opened {
    type Target = Store;
    fn deref(&self) -> &Store {
        let (Opened::Single(store) | Opened::Sharded(store)) = self;
        store
    }
}

/// Lets `Server::bind` take an `Arc<Opened>`.
impl Borrow<Store> for Opened {
    fn borrow(&self) -> &Store {
        self
    }
}

#[cfg(test)]
mod tests;
