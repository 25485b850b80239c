//! The data-component backend registry.
//!
//! The Deuteronomy split makes the DC pluggable: anything implementing
//! [`crate::DcApi`] can sit behind the TC (§1.1 names replicas on
//! "disparate physical system configurations"; LogBase-style log-structured
//! stores are the same idea). The engine selects one through
//! `EngineConfig::backend`, a name of the form `<store>`,
//! `remote:<store>` or `tcp:<store>`:
//!
//! * the **store** is the component that places data — `btree`
//!   ([`DataComponent`]), `hash` ([`HashDc`]) or `log` ([`LogDc`]);
//! * the **deployment** says how the TC reaches it ([`Deployment`]):
//!   in process, behind the message boundary on the inline loopback, or
//!   behind a real loopback TCP socket.

use crate::api::DcApi;
use crate::dc::{DataComponent, DcConfig};
use crate::hash::{hash_bulk_load, HashDc};
use crate::logdc::{log_bulk_load, LogDc};
use lr_common::{Error, Key, PageId, Result, TableId, Value};
use lr_storage::Disk;
use lr_wal::SharedWal;
use std::sync::Arc;

/// Name of the default clustered B-tree backend ([`DataComponent`]).
pub const BTREE_BACKEND: &str = "btree";
/// Name of the in-memory hash-index backend ([`HashDc`]).
pub const HASH_BACKEND: &str = "hash";
/// Name of the log-structured backend ([`LogDc`]): the WAL is the store.
pub const LOG_BACKEND: &str = "log";
/// The B-tree backend behind the message boundary: a
/// [`crate::remote::RemoteDc`] proxy speaking the wire protocol to a
/// [`crate::server::DcServer`] over the inline loopback.
pub const REMOTE_BTREE_BACKEND: &str = "remote:btree";

/// Offline initial-table loader: `(disk, table, rows, fill) → anchor`.
pub type BulkLoadFn =
    fn(&mut dyn Disk, TableId, &mut dyn Iterator<Item = (Key, Value)>, f64) -> Result<PageId>;
/// Component constructor over a formatted disk and the shared log.
pub type OpenFn = fn(Box<dyn Disk>, SharedWal, DcConfig) -> Result<Arc<dyn DcApi>>;

/// One store: how to format a fresh disk, bulk-load the initial table,
/// and open the component. Every store shares the disk format
/// (`format_disk` installs the same empty catalog), so a formatted disk is
/// store-portable until the first bulk load.
struct Store {
    /// The store's name in each [`Deployment`], in declaration order.
    names: [&'static str; 3],
    format: fn(&mut dyn Disk) -> Result<()>,
    bulk_load: BulkLoadFn,
    open: OpenFn,
}

/// A store's row: its plain name, and that name behind each boundary.
macro_rules! store {
    ($name:expr, $bulk_load:expr, $open:expr) => {
        Store {
            names: [$name, concat!("remote:", $name), concat!("tcp:", $name)],
            format: DataComponent::format_disk,
            bulk_load: $bulk_load,
            open: $open,
        }
    };
}

static STORES: [Store; 3] = [
    store!(
        "btree",
        |disk, table, rows, fill| lr_btree::bulk_load(disk, table, rows, fill),
        |d, w, c| Ok(Arc::new(DataComponent::open(d, w, c)?))
    ),
    store!("hash", hash_bulk_load, |d, w, c| Ok(Arc::new(HashDc::open(d, w, c)?))),
    store!("log", log_bulk_load, |d, w, c| Ok(Arc::new(LogDc::open(d, w, c)?))),
];

/// How the TC reaches a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// In process: the TC calls the component directly.
    Local,
    /// Behind the message boundary: a `RemoteDc` proxy talking to a
    /// `DcServer` over the inline loopback (dispatch on the caller's
    /// thread).
    Remote,
    /// Behind a real socket: the `DcServer` accepts on loopback TCP with a
    /// thread per connection, and the proxy dials it.
    Tcp,
}

impl Deployment {
    const ALL: [Deployment; 3] = [Deployment::Local, Deployment::Remote, Deployment::Tcp];

    /// Put `inner` behind this deployment's boundary under `name`.
    pub fn deploy(self, inner: Arc<dyn DcApi>, name: &'static str) -> Result<Arc<dyn DcApi>> {
        Ok(match self {
            Deployment::Local => inner,
            Deployment::Remote => crate::remote::remote_loopback(inner, name).0,
            Deployment::Tcp => crate::tcp::tcp_deploy(inner, name)?.0,
        })
    }
}

/// A resolved backend name: one store in one deployment.
#[derive(Clone, Copy)]
pub struct Backend {
    /// The name it resolved from (`EngineConfig::backend`).
    pub name: &'static str,
    pub deployment: Deployment,
    store: &'static Store,
}

impl Backend {
    /// Format a fresh disk (install the empty catalog on the meta page).
    pub fn format(&self, disk: &mut dyn Disk) -> Result<()> {
        (self.store.format)(disk)
    }

    /// Build the initial table directly on the disk (offline load,
    /// bypassing pool and log); returns the table's placement anchor.
    pub fn bulk_load(
        &self,
        disk: &mut dyn Disk,
        table: TableId,
        rows: &mut dyn Iterator<Item = (Key, Value)>,
        fill: f64,
    ) -> Result<PageId> {
        (self.store.bulk_load)(disk, table, rows, fill)
    }

    /// Open the component over a formatted disk and the shared log, behind
    /// this backend's deployment.
    pub fn open(
        &self,
        disk: Box<dyn Disk>,
        wal: SharedWal,
        cfg: DcConfig,
    ) -> Result<Arc<dyn DcApi>> {
        self.deployment.deploy((self.store.open)(disk, wal, cfg)?, self.name)
    }
}

/// Parse a backend name: `<store>`, `remote:<store>` or `tcp:<store>`.
/// An unknown deployment prefix or store lists the valid names.
pub fn backend(name: &str) -> Result<Backend> {
    let unknown = |what: &str| {
        Error::RecoveryInvariant(format!(
            "unknown DC {what} in backend '{name}' (valid: {})",
            backend_names().join(", ")
        ))
    };
    let (deployment, store) = match name.split_once(':') {
        None => (Deployment::Local, name),
        Some(("remote", store)) => (Deployment::Remote, store),
        Some(("tcp", store)) => (Deployment::Tcp, store),
        Some(_) => return Err(unknown("deployment")),
    };
    let store = STORES.iter().find(|s| s.names[0] == store).ok_or_else(|| unknown("store"))?;
    Ok(Backend { name: store.names[deployment as usize], deployment, store })
}

/// Every backend name: each deployment of each store.
pub fn backend_names() -> Vec<&'static str> {
    backends().map(|b| b.name).collect()
}

/// Every backend — what the unknown-backend error and the bench
/// harnesses' `--help` output enumerate, so a newly registered store
/// shows up everywhere without touching either.
pub fn backends() -> impl Iterator<Item = Backend> {
    Deployment::ALL.into_iter().flat_map(|deployment| {
        STORES.iter().map(move |store| Backend {
            name: store.names[deployment as usize],
            deployment,
            store,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::{IoModel, SimClock};
    use lr_storage::SimDisk;
    use lr_wal::Wal;

    #[test]
    fn registry_knows_all_backends() {
        let stores = ["btree", "hash", "log"];
        let deployments =
            [("", Deployment::Local), ("remote:", Deployment::Remote), ("tcp:", Deployment::Tcp)];
        let mut grid = Vec::new();
        for (prefix, deployment) in deployments {
            for store in stores {
                let name = format!("{prefix}{store}");
                let b = backend(&name).unwrap_or_else(|e| panic!("{name} must resolve: {e}"));
                assert_eq!((b.name, b.deployment), (name.as_str(), deployment));
                let mut disk = SimDisk::new(256, 0, SimClock::new(), IoModel::zero());
                b.format(&mut disk).unwrap();
                let dc = b.open(Box::new(disk), Wal::new_shared(4096), DcConfig::default());
                assert_eq!(dc.unwrap().backend_name(), name, "an opened {name} reports its name");
                grid.push(name);
            }
        }
        assert_eq!(backend_names(), grid, "the registry is exactly the 3x3 grid");

        for (bad, what) in [("udp:btree", "deployment"), ("lsm", "store"), ("tcp:lsm", "store")] {
            let err = match backend(bad) {
                Err(e) => e.to_string(),
                Ok(b) => panic!("unexpectedly resolved '{}'", b.name),
            };
            assert!(err.contains(&format!("unknown DC {what}")), "{err}");
            for name in backend_names() {
                assert!(err.contains(name), "{err} lacks {name}");
            }
        }
    }
}
