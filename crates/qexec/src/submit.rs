//! Transport-agnostic submission: the trait pair that lets VQA-level drivers run
//! against a local [`ExecClient`] or a remote `qnet::NetClient` unchanged.
//!
//! [`JobSubmitter`] abstracts "something that accepts [`EvalJob`]s and hands back
//! completion handles"; [`CompletionHandle`] abstracts the blocking result side of
//! [`JobHandle`].  The runners in [`crate::runner`] are generic over these, so the
//! *same* optimizer loop drives an in-process executor and a TCP connection to one —
//! which is exactly the property the loopback bit-identity suite pins: a driver's
//! results cannot depend on which side of a socket its executor lives on.

use crate::error::ExecError;
use crate::executor::ExecClient;
use crate::job::{EvalJob, JobHandle, SubmitOptions};
use std::time::Duration;
use vqa::EvalResult;

/// The blocking completion side of a submitted job, local or remote.
pub trait CompletionHandle {
    /// Blocks until the job completes and returns its result.
    fn wait(&self) -> Result<EvalResult, ExecError>;

    /// Blocks until the job completes or `timeout` elapses (`None` on timeout; the
    /// job stays pending and can be waited on again).
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<EvalResult, ExecError>>;

    /// The job's result if it has already completed (non-blocking).
    fn try_result(&self) -> Option<Result<EvalResult, ExecError>>;

    /// Whether the job has completed (successfully or not).
    fn is_finished(&self) -> bool {
        self.try_result().is_some()
    }
}

/// Something that accepts owned evaluation jobs: a local [`ExecClient`], or a remote
/// client speaking the `qnet` wire protocol.
pub trait JobSubmitter {
    /// The completion handle this submitter hands back.
    type Handle: CompletionHandle;

    /// Submits a charged evaluation job.
    fn submit_job(&self, job: EvalJob, opts: &SubmitOptions) -> Result<Self::Handle, ExecError>;

    /// Submits an uncharged probe (exact expectation of the charged observable, zero
    /// shots, free observables ignored).
    fn submit_probe_job(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
    ) -> Result<Self::Handle, ExecError>;

    /// Submits a group of jobs (default backend, default priority) that should
    /// coalesce into one batched slate where the transport supports it.  The default
    /// implementation submits sequentially with no coalescing guarantee.
    /// [`ExecClient`] enqueues the group atomically ([`ExecClient::submit_group`]: one
    /// slate, and nothing enqueued on a refusal) and `qnet` ships it as one batch
    /// frame to the same call; there a refusal the client could not see locally
    /// resolves every returned handle with the refusing error instead of failing this
    /// call.
    fn submit_job_group(&self, jobs: Vec<EvalJob>) -> Result<Vec<Self::Handle>, ExecError> {
        jobs.into_iter()
            .map(|job| self.submit_job(job, &SubmitOptions::default()))
            .collect()
    }
}

impl CompletionHandle for JobHandle {
    fn wait(&self) -> Result<EvalResult, ExecError> {
        JobHandle::wait(self)
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Result<EvalResult, ExecError>> {
        JobHandle::wait_timeout(self, timeout)
    }

    fn try_result(&self) -> Option<Result<EvalResult, ExecError>> {
        JobHandle::try_result(self)
    }

    fn is_finished(&self) -> bool {
        JobHandle::is_finished(self)
    }
}

impl JobSubmitter for ExecClient {
    type Handle = JobHandle;

    fn submit_job(&self, job: EvalJob, opts: &SubmitOptions) -> Result<JobHandle, ExecError> {
        self.submit_with(job, opts)
    }

    fn submit_probe_job(&self, job: EvalJob, opts: &SubmitOptions) -> Result<JobHandle, ExecError> {
        self.submit_probe_with(job, opts)
    }

    fn submit_job_group(&self, jobs: Vec<EvalJob>) -> Result<Vec<JobHandle>, ExecError> {
        self.submit_all(jobs)
    }
}
